#include "fault/crash_harness.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/rng.hpp"
#include "src_cache/small_rig.hpp"
#include "tier/tier_cache.hpp"

namespace srcache::fault {

namespace {

using blockdev::DeviceOp;
using src::SrcCache;

struct Op {
  bool is_write = false;
  u64 lba = 0;
  u32 nblocks = 1;
  u8 comp_pct = 60;       // per-op compressibility stamp (tier replays)
  std::vector<u64> tags;  // writes only
};

// The whole workload is materialized up front so every replay issues an
// identical prefix, whatever boundary it is cut at.
struct Script {
  std::vector<Op> ops;
  // Per LBA, every (tag, op index) ever written to it, in issue order.
  // Version index 0 is the implicit never-written content (tag 0).
  std::unordered_map<u64, std::vector<std::pair<u64, u64>>> history;

  [[nodiscard]] long version_index(u64 lba, u64 tag) const {
    if (tag == 0) return 0;
    auto it = history.find(lba);
    if (it == history.end()) return -1;
    for (size_t i = 0; i < it->second.size(); ++i)
      if (it->second[i].first == tag) return static_cast<long>(i) + 1;
    return -1;
  }

  // Was a version newer than `floor_idx` written to `lba` before op
  // `crash_op`? If so, that write superseded the durable copy in RAM and was
  // itself lost with the cut — the paper's accepted (TWAIT-bounded) loss
  // window, within which the durable version may regress.
  [[nodiscard]] bool newer_write_before(u64 lba, long floor_idx,
                                        u64 crash_op) const {
    auto it = history.find(lba);
    if (it == history.end()) return false;
    for (size_t i = 0; i < it->second.size(); ++i) {
      if (static_cast<long>(i) + 1 > floor_idx &&
          it->second[i].second < crash_op)
        return true;
    }
    return false;
  }
};

Script make_script(const CrashSweepConfig& cfg) {
  Script sc;
  common::Xoshiro256 rng(cfg.seed);
  const u64 ws = std::max<u64>(cfg.working_set_blocks, 8);
  u64 version = 0;
  for (u64 i = 0; i < cfg.ops; ++i) {
    Op op;
    op.is_write = rng.below(1000) < 700;
    op.nblocks = 1 + static_cast<u32>(rng.below(4));
    op.lba = rng.below(ws - op.nblocks);
    // 20..100%: mostly compressible, with a tail above the tier's
    // incompressible threshold so the bypass path gets exercised too.
    op.comp_pct = static_cast<u8>(20 + rng.below(81));
    if (op.is_write) {
      for (u32 k = 0; k < op.nblocks; ++k) {
        const u64 tag = blockdev::make_tag(op.lba + k, ++version);
        op.tags.push_back(tag);
        sc.history[op.lba + k].emplace_back(tag, i);
      }
    }
    sc.ops.push_back(std::move(op));
  }
  return sc;
}

// The small MemDisk rig keeps the sweep (hundreds of replays) cheap while
// exercising the full SRC stack, optionally under a DRAM tier.
struct Rig : src::SmallRig {
  std::unique_ptr<tier::TierCache> tier;  // optional DRAM tier above cache
  u64 tier_budget;

  Rig(const src::SrcConfig& c, u64 tier_budget_bytes)
      : SmallRig(c), tier_budget(tier_budget_bytes) {
    attach_tier();
  }

  // Reboot: all in-memory cache state is discarded, the media survives.
  // The DRAM tier does not survive a reboot — post-recovery reads go
  // straight to the rebuilt cache.
  void reboot() {
    tier.reset();
    reattach();
    attach_tier();
  }

 private:
  void attach_tier() {
    if (tier_budget == 0) return;
    tier::TierConfig tc;
    tc.budget_bytes = tier_budget;
    tc.destage_batch_blocks = static_cast<u32>(cfg.segment_data_slots(true));
    tier = std::make_unique<tier::TierCache>(tc, cache.get(), cache.get());
  }
};

// Replays the script until done or the rail cuts power. Returns the number
// of ops issued (the op the cut fell in counts as issued). With a tier,
// requests enter through it.
u64 replay(Rig& rig, const Script& sc) {
  cache::CacheDevice* front =
      rig.tier != nullptr ? static_cast<cache::CacheDevice*>(rig.tier.get())
                          : rig.cache.get();
  sim::SimTime now = 1;
  u64 issued = 0;
  for (const Op& op : sc.ops) {
    cache::AppRequest req;
    req.now = now;
    req.is_write = op.is_write;
    req.lba = op.lba;
    req.nblocks = op.nblocks;
    req.comp_pct = op.comp_pct;
    if (op.is_write) req.tags = op.tags.data();
    front->submit(req);
    issued++;
    if (rig.rail.off) break;
    now += 50 * sim::kUs;
  }
  return issued;
}

struct SnapshotEntry {
  u64 lba;
  bool dirty;
  u64 tag;

  bool operator==(const SnapshotEntry&) const = default;
};

// Reads back every recovered block through the normal (checksum-verified)
// read path. Reading only resident blocks keeps the snapshot side-effect
// free: hits never fetch, stage or seal anything.
std::vector<SnapshotEntry> snapshot(Rig& rig, u64 working_set,
                                    std::vector<std::string>* violations,
                                    const std::string& ctx) {
  std::vector<SnapshotEntry> snap;
  sim::SimTime now = 1;
  for (u64 lba = 0; lba < working_set; ++lba) {
    const auto res = rig.cache->residence(lba);
    if (res == SrcCache::Residence::kAbsent) continue;
    const bool dirty = res == SrcCache::Residence::kCachedDirty ||
                       res == SrcCache::Residence::kDirtyBuffer;
    u64 tag = 0;
    cache::AppRequest req;
    req.now = now;
    req.lba = lba;
    req.nblocks = 1;
    req.tags_out = &tag;
    rig.cache->submit(req);
    now += 10 * sim::kUs;
    snap.push_back({lba, dirty, tag});
  }
  if (rig.cache->extra().unrecoverable_blocks != 0) {
    violations->push_back(ctx + ": unrecoverable blocks after recovery");
  }
  return snap;
}

}  // namespace

CrashSweepResult run_crash_sweep(const CrashSweepConfig& cfg) {
  CrashSweepResult res;
  src::SrcConfig sc_cfg = cfg.src;
  sc_cfg.verify_checksums = true;

  const Script script = make_script(cfg);

  // Baseline pass: the cut positions are the replay's media commands. A
  // seal writes MS, data and ME to each SSD in turn, and nothing else in
  // the replay writes a payload, so a seal's stripe is the `stripe_len`
  // commands from a payload write on. The tier (if any) is present here
  // too, so the command sequence matches the cut replays exactly.
  u64 first = 0;  // the replay's first command (the format's come before)
  u64 end = 0;    // one past its last
  std::vector<u64> stripes;  // the first command of each seal's stripe
  const u64 stripe_len = sc_cfg.layout().seal_commands();
  {
    Rig rig(sc_cfg, cfg.tier_budget_bytes);
    first = rig.rail.log.size();
    replay(rig, script);
    end = rig.rail.log.size();
    res.seals = rig.cache->extra().segments_written;
    for (u64 i = first; i < end; ++i) {
      if (rig.rail.log[i] != DeviceOp::kWritePayload) continue;
      stripes.push_back(i);
      i += stripe_len - 1;
    }
  }
  res.commands = end - first;
  if (stripes.size() != res.seals) {
    res.violations.push_back("baseline stripes do not match its seals");
    return res;
  }
  if (res.seals == 0) {
    res.violations.push_back(
        "workload sealed no segments; nothing to crash into");
    return res;
  }

  u64 stride = 1;
  if (cfg.max_boundaries > 0 && res.commands + 1 > cfg.max_boundaries)
    stride = (res.commands + cfg.max_boundaries) / cfg.max_boundaries;

  FaultLedger ledger;
  FaultLedger tier_ledger;  // one injected+detected pair per lost dirty block
  // Per LBA, the version index durably recovered at the previous cut;
  // monotone durability means it never decreases as the cut moves later.
  std::map<u64, long> durable_floor;
  // Snapshots of the cuts at, inside and just after a stripe (invariant 2).
  std::map<u64, std::vector<SnapshotEntry>> stripe_snaps;
  u64 case_id = 0;

  for (u64 cut = first; cut <= end; cut += stride, case_id++) {
    const std::string ctx = "cut " + std::to_string(cut - first);
    res.cases++;
    ledger.record_injected(FaultKind::kPowerCut, kPrimaryDev, case_id);

    Rig rig(sc_cfg, cfg.tier_budget_bytes);
    if (rig.tier != nullptr) rig.tier->set_fault_ledger(&tier_ledger);
    rig.rail.budget = cut;
    const u64 crash_op = replay(rig, script);
    if (cut < end && !rig.rail.off)
      res.violations.push_back(ctx + ": the cut never fired");

    // DRAM dies with the power: dirty tier residents are lost and each
    // loss is ledgered before the reboot discards the tier. Its
    // bookkeeping is audited first, as the cut found it.
    if (rig.tier != nullptr) {
      const Status tier_audit = rig.tier->verify_consistency();
      if (!tier_audit.is_ok()) {
        res.violations.push_back(ctx + ": pre-cut tier audit: " +
                                 tier_audit.to_string());
      }
      rig.tier->on_power_cut(1);
      res.tier_lost_dirty += rig.tier->tier_stats().lost_dirty_blocks;
    }

    rig.rail.restore();
    rig.reboot();
    sim::SimTime done = 0;
    const Status st = rig.cache->recover(0, &done);
    if (!st.is_ok()) {
      res.violations.push_back(ctx + ": recovery failed: " + st.to_string());
      continue;
    }
    const Status audit = rig.cache->verify_consistency();
    if (!audit.is_ok()) {
      res.violations.push_back(ctx + ": post-recovery audit: " +
                               audit.to_string());
    }

    const u64 torn = rig.cache->extra().torn_segments_discarded;
    res.torn_segments += torn;
    if (torn > 0) ledger.record_detected(kPrimaryDev, case_id);

    auto snap = snapshot(rig, cfg.working_set_blocks, &res.violations, ctx);

    // Invariant 3: every surviving block holds a value actually written.
    for (const SnapshotEntry& e : snap) {
      if (script.version_index(e.lba, e.tag) < 0) {
        res.violations.push_back(ctx + ": lba " + std::to_string(e.lba) +
                                 " recovered a tag never written to it");
      }
    }

    // Invariant 4: durability is monotone in the cut position. The durable
    // version of an LBA is what a reboot serves: the recovered cache copy,
    // else primary storage's copy.
    std::unordered_map<u64, u64> cached;
    for (const SnapshotEntry& e : snap) cached[e.lba] = e.tag;
    sim::SimTime now = 1;
    for (u64 lba = 0; lba < cfg.working_set_blocks; ++lba) {
      u64 tag = 0;
      if (auto it = cached.find(lba); it != cached.end()) {
        tag = it->second;
      } else {
        rig.primary->read(now, lba, 1, std::span<u64>(&tag, 1));
        now += 1 * sim::kUs;
      }
      const long idx = script.version_index(lba, tag);
      auto it = durable_floor.find(lba);
      if (it != durable_floor.end() && idx >= 0 && idx < it->second &&
          !script.newer_write_before(lba, it->second, crash_op)) {
        res.violations.push_back(ctx + ": lba " + std::to_string(lba) +
                                 " regressed from version " +
                                 std::to_string(it->second) + " to " +
                                 std::to_string(idx));
      }
      if (idx >= 0)
        durable_floor[lba] =
            std::max(it == durable_floor.end() ? idx : it->second, idx);
    }

    const auto next = std::upper_bound(stripes.begin(), stripes.end(), cut);
    if (next != stripes.begin() && cut <= *(next - 1) + stripe_len) {
      if (cut != *(next - 1) && cut != *(next - 1) + stripe_len)
        res.stripe_cuts++;
      stripe_snaps.emplace(cut, std::move(snap));
    }
  }

  // Invariant 2: every cut inside a stripe recovered what the cut at its
  // start or the cut just after it did (judged where both were swept).
  for (size_t k = 0; k < stripes.size(); ++k) {
    const auto before = stripe_snaps.find(stripes[k]);
    const auto after = stripe_snaps.find(stripes[k] + stripe_len);
    if (before == stripe_snaps.end() || after == stripe_snaps.end()) continue;
    for (auto in = std::next(before); in != after; ++in) {
      if (in->second != before->second && in->second != after->second) {
        res.violations.push_back(
            "cut " + std::to_string(in->first - first) + " inside seal " +
            std::to_string(k) + " recovered neither the state before nor " +
            "the state after that seal");
      }
    }
  }

  res.injected = ledger.injected();
  res.detected = ledger.detected();
  res.undetected = ledger.undetected();
  if (!ledger.reconciles())
    res.violations.push_back("power-cut fault ledger does not reconcile");
  if (res.injected != res.cases)
    res.violations.push_back("ledger injected count != cases run");
  if (cfg.tier_budget_bytes > 0) {
    if (!tier_ledger.reconciles())
      res.violations.push_back("tier data-loss ledger does not reconcile");
    if (tier_ledger.injected() != res.tier_lost_dirty)
      res.violations.push_back(
          "tier ledger injected != lost dirty tier blocks");
  }
  return res;
}

}  // namespace srcache::fault
