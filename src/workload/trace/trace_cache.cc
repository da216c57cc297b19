#include "workload/trace/trace_cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "workload/gen_params.hh"
#include "workload/trace/block_compiler.hh"

namespace pri::workload::trace
{

ProgramTraces::ProgramTraces(const SyntheticProgram &prog)
{
    const auto &p = prog.profile();
    fracNegative = p.fracNegative;
    fpFracZero = p.fpFracZero;
    fpFracSigTrivialNonZero = p.fpFracSigTrivialNonZero;
    randomAccessFrac = p.randomAccessFrac;
    branchCorrelatedFrac = p.branchCorrelatedFrac;
    fp = prog.fingerprint();
    entryPc_ = prog.block(prog.entry().block).startPc;

    const size_t nb = prog.numBlocks();
    blockFirst.resize(nb);
    startPcs.resize(nb);
    ops_.reserve(prog.numStaticInsts());
    const BlockCompiler compiler(prog);
    for (uint32_t b = 0; b < nb; ++b) {
        const BasicBlock &blk = prog.block(b);
        blockFirst[b] = static_cast<uint32_t>(ops_.size());
        startPcs[b] = blk.startPc;
        compiler.compileBlock(blk, ops_);
    }
    PRI_ASSERT(ops_.size() == prog.numStaticInsts());

    streams_.reserve(prog.streams().size());
    for (const MemStream &st : prog.streams()) {
        TraceStream ts;
        ts.base = st.base;
        ts.hotWords =
            std::min(st.bytes, genp::kHotRegionBytes) >> 3;
        ts.coldWords = st.bytes >> 3;
        ts.seqMask = st.bytes - 1;
        ts.random = st.random;
        streams_.push_back(ts);
    }
}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    return cache;
}

std::shared_ptr<const ProgramTraces>
TraceCache::acquire(const SyntheticProgram &prog)
{
    std::lock_guard<std::mutex> lock(mu);
    if (auto it = entries.find(prog.fingerprint());
        it != entries.end()) {
        if (auto live = it->second.lock()) {
            ++nShared;
            return live;
        }
    }
    // A miss: drop the entries whose traces have been freed, so the
    // map stays as small as the set of programs in use.
    std::erase_if(entries,
                  [](const auto &e) { return e.second.expired(); });
    auto traces = std::make_shared<const ProgramTraces>(prog);
    ++nCompiled;
    nBlocks += traces->numBlocks();
    nOps += traces->numOps();
    entries.emplace(prog.fingerprint(), traces);
    return traces;
}

TraceCache::Stats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    Stats s;
    s.programsCompiled = nCompiled;
    s.programsShared = nShared;
    s.blocksCompiled = nBlocks;
    s.microOps = nOps;
    for (const auto &[key, entry] : entries) {
        if (const auto traces = entry.lock())
            s.traceBytes += traces->traceBytes();
    }
    s.opsReplayed = opsReplayed.load(std::memory_order_relaxed);
    s.opsLegacyDecoded = opsLegacy.load(std::memory_order_relaxed);
    return s;
}

void
TraceCache::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    entries.clear();
    nCompiled = nShared = nBlocks = nOps = 0;
    opsReplayed.store(0, std::memory_order_relaxed);
    opsLegacy.store(0, std::memory_order_relaxed);
}

} // namespace pri::workload::trace
