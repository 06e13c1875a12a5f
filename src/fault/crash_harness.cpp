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

using src::SrcCache;
using CrashPoint = SrcCache::CrashPoint;

constexpr CrashPoint kPoints[] = {CrashPoint::kBeforeSeg, CrashPoint::kAfterMs,
                                  CrashPoint::kAfterData};

const char* point_name(CrashPoint p) {
  switch (p) {
    case CrashPoint::kBeforeSeg: return "before-seg";
    case CrashPoint::kAfterMs: return "after-ms";
    case CrashPoint::kAfterData: return "after-data";
    case CrashPoint::kNone: break;
  }
  return "none";
}

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
  const auto write_permille = static_cast<u64>(cfg.write_fraction * 1000.0);
  u64 version = 0;
  for (u64 i = 0; i < cfg.ops; ++i) {
    Op op;
    op.is_write = rng.below(1000) < write_permille;
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
  u32 tier_dirty_pct;

  Rig(const src::SrcConfig& c, u64 tier_budget_bytes, u32 dirty_pct)
      : SmallRig(c), tier_budget(tier_budget_bytes), tier_dirty_pct(dirty_pct) {
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
    tc.dirty_pct = tier_dirty_pct;
    tc.destage_batch_blocks = static_cast<u32>(cfg.segment_data_slots(true));
    tier = std::make_unique<tier::TierCache>(tc, cache.get(), cache.get());
  }
};

// Replays the script until done or the scheduled power cut fires. Returns
// the number of ops issued (the crashing op counts as issued). With a tier,
// requests enter through it — the cut can then fire mid-destage, while the
// crashed inner cache drops everything else the tier pushes down.
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
    if (rig.cache->crashed()) break;
    now += 50 * sim::kUs;
  }
  return issued;
}

struct SnapshotEntry {
  u64 lba;
  bool dirty;
  u64 tag;

  bool operator==(const SnapshotEntry& o) const {
    return lba == o.lba && dirty == o.dirty && tag == o.tag;
  }
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

  // Baseline pass enumerates the power-cut boundaries: one per segment seal.
  // The tier (if any) is present here too, so the seal schedule matches the
  // crashing replays exactly.
  u64 total_seals = 0;
  {
    Rig rig(sc_cfg, cfg.tier_budget_bytes, cfg.tier_dirty_pct);
    replay(rig, script);
    total_seals = rig.cache->seals();
  }
  if (total_seals == 0) {
    res.violations.push_back(
        "workload sealed no segments; nothing to crash into");
    return res;
  }

  u64 stride = 1;
  if (cfg.max_boundaries > 0 && total_seals > cfg.max_boundaries)
    stride = (total_seals + cfg.max_boundaries - 1) / cfg.max_boundaries;

  FaultLedger ledger;
  FaultLedger tier_ledger;  // one injected+detected pair per lost dirty block
  // Per LBA, the version index durably recovered at the previous boundary;
  // monotone durability means it never decreases as the cut moves later.
  std::map<u64, long> durable_floor;
  u64 case_id = 0;

  for (u64 b = 0; b < total_seals; b += stride) {
    res.boundaries++;
    std::vector<std::vector<SnapshotEntry>> snaps;

    for (CrashPoint point : kPoints) {
      const std::string ctx = "boundary " + std::to_string(b) + " " +
                              point_name(point);
      res.cases++;
      ledger.record_injected(FaultKind::kPowerCut, kPrimaryDev, case_id);

      Rig rig(sc_cfg, cfg.tier_budget_bytes, cfg.tier_dirty_pct);
      if (rig.tier != nullptr) rig.tier->set_fault_ledger(&tier_ledger);
      rig.cache->schedule_crash(b, point);
      const u64 crash_op = replay(rig, script);
      if (!rig.cache->crashed()) {
        res.violations.push_back(ctx + ": scheduled cut never fired");
        case_id++;
        continue;
      }

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

      rig.reboot();
      sim::SimTime done = 0;
      const Status st = rig.cache->recover(0, &done);
      if (!st.is_ok()) {
        res.violations.push_back(ctx + ": recovery failed: " + st.to_string());
        case_id++;
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

      // Invariant 4: durability is monotone in the boundary index. The
      // durable version of an LBA is what a reboot serves: the recovered
      // cache copy, else primary storage's copy. Checked once per boundary
      // (the cut points recover identical state per invariant 2).
      if (point == CrashPoint::kAfterData) {
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
            res.violations.push_back(
                ctx + ": lba " + std::to_string(lba) +
                " regressed from version " + std::to_string(it->second) +
                " to " + std::to_string(idx));
          }
          if (idx >= 0)
            durable_floor[lba] =
                std::max(it == durable_floor.end() ? idx : it->second, idx);
        }
      }

      snaps.push_back(std::move(snap));
      case_id++;
    }

    // Invariant 2: how much of the torn segment reached media must not
    // matter — the three cut points recover bit-identical state.
    for (size_t p = 1; p < snaps.size(); ++p) {
      if (!(snaps[p] == snaps[0])) {
        res.violations.push_back(
            "boundary " + std::to_string(b) + ": " + point_name(kPoints[p]) +
            " recovered different state than " + point_name(kPoints[0]));
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
