#include "sim_instance.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "workload/program.hh"

namespace pri::sim
{

core::CoreConfig
coreConfigFor(const RunParams &params)
{
    const unsigned narrow = params.narrowBitsOverride
        ? params.narrowBitsOverride
        : core::CoreConfig::narrowBitsForWidth(params.width);
    auto rn_cfg =
        makeRenameConfig(params.scheme, params.physRegs, narrow);
    rn_cfg.injectFreeWithoutInline = params.injectFreeWithoutInline;
    core::CoreConfig cfg = params.width >= 8
        ? core::CoreConfig::eightWide(rn_cfg)
        : core::CoreConfig::fourWide(rn_cfg);
    if (params.schedSizeOverride)
        cfg.schedSize = params.schedSizeOverride;
    cfg.prfReadPorts = params.prfReadPorts;
    cfg.injectFault = params.injectFault;
    cfg.faultSpec = params.faultSpec;

    // Watchdog / budget plumbing. PRI_WATCHDOG_CYCLES overrides the
    // stall threshold process-wide; 0 disables detection.
    cfg.watchdogEnabled = params.watchdog;
    if (params.watchdogCycles != 0)
        cfg.watchdogCycles = params.watchdogCycles;
    if (const char *wd = std::getenv("PRI_WATCHDOG_CYCLES")) {
        const uint64_t v = std::strtoull(wd, nullptr, 10);
        cfg.watchdogEnabled = v != 0;
        if (v != 0)
            cfg.watchdogCycles = v;
    }
    cfg.cycleBudget = params.cycleBudget;
    return cfg;
}

SimInstance::SimInstance(const RunParams &params,
                         const SharedWorkload *shared,
                         LaneArena *arena)
    : params(params)
{
    if (shared != nullptr) {
        program = shared->program;
    } else {
        const auto &profile =
            workload::profileByName(params.benchmark);
        program = std::make_shared<const workload::SyntheticProgram>(
            profile, params.seed);
    }

    const core::CoreConfig cfg = coreConfigFor(params);

    {
        // Hot per-lane core state lands in this lane's arena slabs;
        // containers built later (the cold checker, stat strings)
        // stay on the heap.
        ArenaScope scope(arena);
        cpu = std::make_unique<core::OutOfOrderCore>(
            cfg, *program, stats,
            shared != nullptr ? shared->traces : nullptr,
            shared != nullptr ? shared->tape : nullptr);
    }
    cpu->setWallClockBudget(params.timeoutMs);

    if (params.checkGolden ||
        std::getenv("PRI_CHECK_GOLDEN") != nullptr) {
        golden::DiffChecker::Options opt;
        opt.archCheckInterval = params.goldenAuditInterval;
        checker =
            std::make_unique<golden::DiffChecker>(*program, opt);
        auto *core_ptr = cpu.get();
        checker->setAuditHook(
            [core_ptr] { core_ptr->checkInvariants(); });
        cpu->setCommitObserver(checker.get());
    }
}

bool
SimInstance::step(uint64_t quantum)
{
    if (phase == Phase::Warmup) {
        const uint64_t committed = cpu->committedInsts();
        const uint64_t remain = params.warmupInsts > committed
            ? params.warmupInsts - committed
            : 0;
        cpu->run(std::min(quantum, remain));
        if (cpu->committedInsts() < params.warmupInsts)
            return false;

        cpu->beginMeasurement();
        c0 = cpu->cycles();
        i0 = cpu->committedInsts();
        // Re-zero event counters so rates reflect the window only.
        mp0 = stats.scalarValue("core.branchMispredicts");
        br0 = stats.scalarValue("core.committedBranches");
        pf0 = stats.scalarValue("pri.earlyFrees");
        ef0 = stats.scalarValue("er.earlyFrees");
        nw0 = stats.scalarValue("pri.narrowResultsInt") +
            stats.scalarValue("pri.narrowResultsFp");
        da0 = stats.scalarValue("rename.destAllocs");
        ps0 = stats.scalarValue("core.prfPortStallOps");
        pr0 = stats.scalarValue("core.prfPortReads");
        pb0 = stats.scalarValue("core.prfPortInlineBypass");
        measureTarget = i0 + params.measureInsts;
        phase = Phase::Measure;
        if (quantum != kNoLimit)
            return false;
    }

    if (phase == Phase::Measure) {
        const uint64_t committed = cpu->committedInsts();
        const uint64_t remain = measureTarget > committed
            ? measureTarget - committed
            : 0;
        cpu->run(std::min(quantum, remain));
        if (cpu->committedInsts() < measureTarget)
            return false;

        if (params.checkInvariants)
            cpu->checkInvariants();
        if (checker)
            checker->finishRun();
        phase = Phase::Done;
    }
    return true;
}

RunResult
SimInstance::finish()
{
    PRI_ASSERT(phase == Phase::Done,
               "finish() before the run completed");

    RunResult r;
    r.benchmark = params.benchmark;
    r.scheme = schemeName(params.scheme);
    r.width = params.width;
    r.cycles = cpu->cycles() - c0;
    r.insts = cpu->committedInsts() - i0;
    r.committedTotal = cpu->committedInsts();
    r.goldenChecked = checker ? checker->checkedCommits() : 0;
    // IPC from the same measurement-window deltas as cycles/insts,
    // so the three fields are always mutually consistent (a run
    // whose window deltas were taken here must never mix in whole-
    // run counts — speedups in Fig 10/12 divide these IPCs).
    r.ipc = r.cycles == 0
        ? 0.0
        : static_cast<double>(r.insts) /
            static_cast<double>(r.cycles);
    r.avgIntOccupancy = cpu->avgIntOccupancy();
    r.avgFpOccupancy = cpu->avgFpOccupancy();

    r.lifeAllocToWrite =
        stats.average("lifetime.allocToWrite").mean();
    r.lifeWriteToLastRead =
        stats.average("lifetime.writeToLastRead").mean();
    r.lifeLastReadToRelease =
        stats.average("lifetime.lastReadToRelease").mean();

    const double branches =
        stats.scalarValue("core.committedBranches") - br0;
    r.branchMispredictRate = branches > 0
        ? (stats.scalarValue("core.branchMispredicts") - mp0) /
            branches
        : 0.0;

    const double dl1_total = static_cast<double>(
        cpu->memory().dl1().hits() + cpu->memory().dl1().misses());
    r.dl1MissRate = dl1_total > 0
        ? cpu->memory().dl1().misses() / dl1_total
        : 0.0;

    const double insts_k = static_cast<double>(r.insts) / 1000.0;
    r.priEarlyFrees = insts_k > 0
        ? (stats.scalarValue("pri.earlyFrees") - pf0) / insts_k
        : 0.0;
    r.erEarlyFrees = insts_k > 0
        ? (stats.scalarValue("er.earlyFrees") - ef0) / insts_k
        : 0.0;

    const double dests =
        stats.scalarValue("rename.destAllocs") - da0;
    const double narrow_n =
        stats.scalarValue("pri.narrowResultsInt") +
        stats.scalarValue("pri.narrowResultsFp") - nw0;
    r.inlinedFrac = dests > 0 ? narrow_n / dests : 0.0;

    r.portStallsPerKInst = insts_k > 0
        ? (stats.scalarValue("core.prfPortStallOps") - ps0) / insts_k
        : 0.0;
    const double port_reads =
        stats.scalarValue("core.prfPortReads") - pr0;
    const double port_bypass =
        stats.scalarValue("core.prfPortInlineBypass") - pb0;
    r.portInlineBypassFrac = port_reads + port_bypass > 0
        ? port_bypass / (port_reads + port_bypass)
        : 0.0;

    r.archSig = cpu->archSignature();
    r.report = stats.report("  ");
    return r;
}

} // namespace pri::sim
