// fault_matrix: the CI reliability gate.
//
// Runs the scripted fault-scenario grid (fail-stop x silent corruption x
// latent sector errors x link degradation x combinations, across the four
// stripe organisations of §5.2), the hot-spare rebuild grid (fail ->
// replace -> online reconstruction to completion under full traffic for
// every protected level, plus a second-failure-during-rebuild case that
// must surface as detected-unrepairable), and the crash-consistency sweep
// (fault/crash_harness.hpp). It asserts the §4.3 failure-handling
// guarantees, the fault-ledger reconciliation invariant
// (injected == detected + undetected), and the rebuild provenance balance
// (ledgered rebuild_copy bytes == the spare's rebuild write bytes), and
// writes one machine-readable JSON document for the CI artifact.
//
//   fault_matrix [--out <path>] [--quick]
//
//   --out    artifact path (default: $REPRO_JSON, else fault_matrix.json)
//   --quick  subsample the crash sweep's cut positions (CI smoke settings)
//
// Exit status: 0 when every scenario passed, 1 otherwise (the gate).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "fault/crash_harness.hpp"
#include "fault/fault_injector.hpp"
#include "obs/json.hpp"
#include "raid/rebuild.hpp"
#include "src_cache/small_rig.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

namespace {

using namespace srcache;

struct Scenario {
  std::string name;
  raid::RaidLevel raid;
  std::string plan;       // fault/fault_plan.hpp syntax
  bool scrub = false;     // run a full scrub after the workload
  bool expect_detect = true;  // at least one fault must be detected
  // Dirty blocks must never be lost (holds for every protected stripe
  // organisation; RAID-0 accepts dirty loss on fail-stop, §4.3).
  bool expect_no_dirty_loss = true;
  // Hot-spare rebuild scenarios: wire a RebuildManager to the injector's
  // replace/spare actions and assert the expected end state.
  bool rebuild = false;
  bool expect_rebuild_complete = false;  // reconstruction finished cleanly
  bool expect_unrecoverable = false;     // a second failure lost blocks
  double rebuild_mbps = 256.0;  // slow rates keep a rebuild window open for
                                // the second failure to land inside
};

struct ScenarioOutcome {
  std::string name;
  std::vector<std::string> violations;
  std::string run_json;  // workload::run_json of the measured window
  src::SrcCache::ScrubReport scrub;
  u64 lost_dirty = 0;
  u64 lost_clean = 0;
  raid::RebuildOutcome rebuild;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

ScenarioOutcome run_scenario(const Scenario& sc) {
  ScenarioOutcome out;
  out.name = sc.name;
  auto fail = [&out](const std::string& why) { out.violations.push_back(why); };

  const src::SrcConfig cfg = src::small_config(sc.raid);
  src::SmallRig rig(cfg);

  fault::FaultInjector inj(fault::FaultPlan::parse_or_die(sc.plan, /*seed=*/7));
  const std::vector<blockdev::BlockDevice*> devs = rig.ssd_ptrs();
  inj.attach_ssds(devs);
  inj.attach_primary(rig.primary.get());

  // The benches' wiring (src::wire_faults); hot-spare rebuild scenarios add
  // the rebuilder the plan's replace/spare actions drive.
  std::unique_ptr<raid::RebuildManager> mgr;
  if (sc.rebuild) {
    raid::RebuildConfig rbc;
    rbc.mbps = sc.rebuild_mbps;
    mgr = std::make_unique<raid::RebuildManager>(rbc, devs);
  }
  src::wire_faults(*rig.cache, inj, mgr.get());

  // Write-heavy mixed workload over ~1.5x the cache capacity: forces GC,
  // misses and destages, so faults land on a busy array.
  workload::FioGen::Config gc;
  gc.span_blocks = cfg.capacity_blocks() * 3 / 2;
  gc.req_blocks = 4;
  gc.read_pct = 30;
  gc.seed = 11;
  workload::FioGen gen(gc);

  engine::DomainSetup dom;
  dom.cache = rig.cache.get();
  dom.ssds = devs;
  dom.gens = {&gen};
  dom.cfg.duration = 120 * sim::kSec;  // op budget is the real stop condition
  dom.cfg.max_ops = 6000;
  dom.cfg.fault = &inj;
  dom.cfg.rebuild = mgr.get();
  workload::RunResult res =
      engine::ParallelEngine({}).run(1, [&](u32, u32) { return dom; }).merged;

  if (!res.fault.active) fail("the run did not report a fault outcome");
  if (res.fault.events_fired != inj.plan().events().size())
    fail("not every planned event fired within the run");

  // Surface latent damage the workload didn't happen to touch: a full
  // scrub reads every live block through the verified path.
  if (sc.scrub) {
    sim::SimTime done = 0;
    out.scrub = rig.cache->scrub(200 * sim::kSec, &done);
    if (out.scrub.scanned == 0) fail("scrub scanned no blocks");
  }

  const fault::FaultLedger& led = inj.ledger();
  if (!led.reconciles())
    fail("fault ledger does not reconcile (injected != detected + undetected)");
  if (led.repaired() > led.detected())
    fail("ledger counts more repairs than detections");
  if (sc.expect_detect && led.detected() == 0)
    fail("no injected fault was ever detected");

  out.lost_dirty = rig.cache->extra().lost_dirty_blocks;
  out.lost_clean = rig.cache->extra().lost_clean_blocks;
  if (sc.expect_no_dirty_loss && out.lost_dirty != 0)
    fail("acked dirty blocks were lost under a survivable fault");
  if (sc.expect_no_dirty_loss && out.scrub.unrecoverable != 0)
    fail("scrub found unrecoverable blocks under a survivable fault");

  const Status audit = rig.cache->verify_consistency();
  if (!audit.is_ok()) fail("post-scenario audit: " + audit.to_string());

  if (sc.rebuild) {
    out.rebuild = mgr->outcome();
    if (!res.rebuild.active) fail("the run did not report a rebuild outcome");
    // Provenance balance: every byte the rebuilder wrote to the spare must
    // be ledgered as a rebuild_copy write, nothing more, nothing less.
    const u64 prov = rig.cache->provenance().cause_bytes(
        obs::WriteCause::kRebuildCopy);
    if (prov != out.rebuild.write_bytes)
      fail("rebuild_copy provenance bytes != rebuild write bytes");
    if (out.rebuild.rebuilds_started == 0)
      fail("replace action never started a rebuild");
    if (out.rebuild.degraded_ns == 0)
      fail("degraded window was not measured");
    if (sc.expect_rebuild_complete) {
      if (out.rebuild.rebuilds_completed == 0)
        fail("rebuild did not complete within the run");
      if (out.rebuild.blocks_unrecovered != 0)
        fail("completed rebuild reported unrecovered blocks");
      if (out.rebuild.blocks_copied == 0 || out.rebuild.write_bytes == 0)
        fail("completed rebuild copied nothing");
      if (led.repaired_by_rebuild() == 0)
        fail("completed rebuild did not credit the ledger's fail-stop record");
    }
    if (sc.expect_unrecoverable) {
      // Second failure during rebuild: single redundancy cannot decode the
      // still-pending extents. The gate requires the loss to be aborted,
      // counted, and left detected-unrepairable — never silently served.
      if (out.rebuild.rebuilds_aborted == 0)
        fail("second failure did not abort the in-flight rebuild");
      if (out.rebuild.blocks_unrecovered == 0)
        fail("second failure during rebuild lost no blocks (window missed)");
      if (led.detected() <= led.repaired())
        fail("double fault left no detected-unrepairable ledger records");
    }
  }

  // Re-read the final ledger state into the result before serializing.
  static_cast<workload::FaultCounters&>(res.fault) =
      workload::read_fault_counters(inj);
  out.run_json = workload::run_json("fault_matrix", sc.name, res);
  return out;
}

std::vector<Scenario> build_grid() {
  using raid::RaidLevel;
  const struct {
    RaidLevel raid;
    const char* tag;
  } raids[] = {
      {RaidLevel::kRaid0, "raid0"},
      {RaidLevel::kRaid1, "raid1"},
      {RaidLevel::kRaid4, "raid4"},
      {RaidLevel::kRaid5, "raid5"},
  };
  // Device-LBA range of the cache region, which starts at block 0.
  const std::string region = "lba=0..1024";

  std::vector<Scenario> grid;
  for (const auto& r : raids) {
    const bool protected_stripe = r.raid != RaidLevel::kRaid0;
    // Whole-device fail-stop mid-run. RAID-0 drops the failed device's
    // blocks (dirty ones are lost by design); every other level keeps
    // serving via mirror or parity.
    grid.push_back({std::string("fail-stop/") + r.tag, r.raid,
                    "at=ops:1500 fail dev=ssd1", /*scrub=*/false,
                    /*expect_detect=*/true, protected_stripe});
    // Silent corruption: seeded random picks across the whole region;
    // the scrub must catch (and on protected levels, repair) every hit.
    grid.push_back({std::string("corrupt/") + r.tag, r.raid,
                    "at=ops:1000 corrupt dev=ssd0 " + region + " count=64",
                    /*scrub=*/true, /*expect_detect=*/true, protected_stripe});
    // Latent sector errors: reads fail until the blocks are rewritten;
    // repair (parity rebuild or refetch + write-back) must clear them.
    // ssd0 is a read-target column under every stripe organisation (RAID-1
    // reads only primary copies, so a mirror-column fault would sit
    // undetected until the mirror is actually needed).
    grid.push_back({std::string("latent/") + r.tag, r.raid,
                    "at=ops:1000 latent dev=ssd0 lba=0..512",
                    /*scrub=*/true, /*expect_detect=*/true, protected_stripe});
  }
  // Link degradation is stripe-independent; one level suffices.
  grid.push_back({"degrade/raid5", RaidLevel::kRaid5,
                  "at=ops:1000 degrade dev=primary factor=8 for=5s",
                  /*scrub=*/false, /*expect_detect=*/true, true});
  // Combined: corruption and latent errors discovered by reads running
  // degraded after a fail-stop — the §4.3 worst case. For RAID-5 this is a
  // double fault (a second device's blocks go bad while one is already
  // down), which single parity cannot repair: the gate requires the damage
  // to be *detected and counted*, not survived.
  grid.push_back({"combined/raid5", RaidLevel::kRaid5,
                  "at=ops:1000 fail dev=ssd1; "
                  "at=ops:1500 corrupt dev=ssd0 " + region + " count=32; "
                  "at=ops:2000 latent dev=ssd2 lba=0..256",
                  /*scrub=*/true, /*expect_detect=*/true,
                  /*expect_no_dirty_loss=*/false});
  grid.push_back({"combined/raid1", RaidLevel::kRaid1,
                  "at=ops:1000 fail dev=ssd1; "
                  "at=ops:1500 corrupt dev=ssd0 " + region + " count=32",
                  /*scrub=*/true, /*expect_detect=*/true, true});
  // Hot-spare rebuild to completion under full traffic, every protected
  // level: fail -> replace installs a blank spare -> background
  // reconstruction finishes inside the run and the post-run scrub reads the
  // rebuilt device back through the verified path. The raid4 plan also
  // provisions an extra spare first, exercising the `spare` action.
  for (const auto& r : raids) {
    if (r.raid == RaidLevel::kRaid0) continue;  // nothing to rebuild from
    const bool extra_spare = r.raid == RaidLevel::kRaid4;
    Scenario sc{std::string("rebuild/") + r.tag, r.raid,
                std::string(extra_spare ? "at=ops:900 spare count=1; " : "") +
                    "at=ops:1000 fail dev=ssd1; at=ops:2000 replace dev=ssd1",
                /*scrub=*/true, /*expect_detect=*/true,
                /*expect_no_dirty_loss=*/true};
    sc.rebuild = true;
    sc.expect_rebuild_complete = true;
    grid.push_back(std::move(sc));
  }
  // Second failure while the rebuild is still running (the vulnerability
  // window §4.3 warns about): a deliberately slow copy rate keeps pending
  // extents open when ssd3 dies, so single parity can no longer decode
  // them. Expected outcome is an aborted rebuild with counted, detected-
  // unrepairable losses — not completion, and never silent garbage.
  {
    Scenario sc{"rebuild-second-fault/raid5", RaidLevel::kRaid5,
                "at=ops:1000 fail dev=ssd1; at=ops:1500 replace dev=ssd1; "
                "at=ops:1550 fail dev=ssd3",
                /*scrub=*/false, /*expect_detect=*/true,
                /*expect_no_dirty_loss=*/false};
    sc.rebuild = true;
    sc.expect_unrecoverable = true;
    sc.rebuild_mbps = 0.001;  // ~0.26 blocks/s: pending extents stay open
    grid.push_back(std::move(sc));
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = std::getenv("REPRO_JSON");
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out <path>] [--quick]\n", argv[0]);
      return 2;
    }
  }
  if (out_path == nullptr) out_path = "fault_matrix.json";

  int failures = 0;
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "srcache-fault-matrix-v2");
  w.key("scenarios").begin_array();

  for (const Scenario& sc : build_grid()) {
    const ScenarioOutcome out = run_scenario(sc);
    std::printf("%-18s %s\n", out.name.c_str(),
                out.ok() ? "ok" : "FAIL");
    for (const std::string& v : out.violations) {
      std::printf("    %s\n", v.c_str());
      failures++;
    }
    w.begin_object();
    w.kv("name", out.name);
    w.kv("ok", out.ok() ? 1 : 0);
    w.kv("lost_dirty_blocks", out.lost_dirty);
    w.kv("lost_clean_blocks", out.lost_clean);
    w.kv("scrub_scanned", out.scrub.scanned);
    w.kv("scrub_repaired", out.scrub.repaired);
    w.kv("scrub_refetched", out.scrub.refetched);
    w.kv("scrub_unrecoverable", out.scrub.unrecoverable);
    w.kv("rebuilds_completed",
         static_cast<u64>(out.rebuild.rebuilds_completed));
    w.kv("rebuilds_aborted", static_cast<u64>(out.rebuild.rebuilds_aborted));
    w.kv("rebuild_blocks_copied", out.rebuild.blocks_copied);
    w.kv("rebuild_blocks_skipped", out.rebuild.blocks_skipped);
    w.kv("rebuild_blocks_unrecovered", out.rebuild.blocks_unrecovered);
    w.key("violations").begin_array();
    for (const std::string& v : out.violations) w.value(v);
    w.end_array();
    w.key("run").raw(out.run_json);
    w.end_object();
  }
  w.end_array();

  // Crash-consistency sweep: a power cut before every device command
  // (subsampled with --quick).
  fault::CrashSweepConfig cc;
  cc.src = src::small_config(raid::RaidLevel::kRaid5);
  cc.ops = 400;
  cc.working_set_blocks = 2048;
  cc.max_boundaries = quick ? 12 : 0;
  const fault::CrashSweepResult sweep = fault::run_crash_sweep(cc);
  std::printf("crash-sweep        %s  (%llu commands, %llu cases, "
              "%llu torn segments discarded)\n",
              sweep.ok() ? "ok" : "FAIL",
              static_cast<unsigned long long>(sweep.commands),
              static_cast<unsigned long long>(sweep.cases),
              static_cast<unsigned long long>(sweep.torn_segments));
  for (const std::string& v : sweep.violations) {
    std::printf("    %s\n", v.c_str());
    failures++;
  }
  w.key("crash_sweep").begin_object();
  w.kv("ok", sweep.ok() ? 1 : 0);
  w.kv("commands", sweep.commands);
  w.kv("seals", sweep.seals);
  w.kv("cases", sweep.cases);
  w.kv("stripe_cuts", sweep.stripe_cuts);
  w.kv("torn_segments", sweep.torn_segments);
  w.kv("injected", sweep.injected);
  w.kv("detected", sweep.detected);
  w.kv("undetected", sweep.undetected);
  w.key("violations").begin_array();
  for (const std::string& v : sweep.violations) w.value(v);
  w.end_array();
  w.end_object();

  w.kv("failures", static_cast<u64>(failures));
  w.end_object();

  const std::string json = w.take();
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr ||
      std::fwrite(json.data(), 1, json.size(), f) != json.size() ||
      std::fputc('\n', f) == EOF) {
    std::fprintf(stderr, "fault_matrix: cannot write %s\n", out_path);
    if (f != nullptr) std::fclose(f);
    return 2;
  }
  std::fclose(f);
  std::printf("\n%d failure(s); artifact: %s\n", failures, out_path);
  return failures == 0 ? 0 : 1;
}
