#include "result_codec.hh"

#include <cstdio>
#include <cstdlib>

namespace pri::sim::codec
{

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
unescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 == s.size()) {
            out += s[i];
            continue;
        }
        switch (s[++i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: out += s[i];
        }
    }
    return out;
}

std::vector<std::string>
splitTabs(const std::string &line)
{
    // Tolerate one trailing newline so both stripped journal/store
    // lines and raw frame bodies (which keep the '\n' the formatter
    // appended) parse identically.
    const size_t end = !line.empty() && line.back() == '\n'
        ? line.size() - 1
        : line.size();
    std::vector<std::string> fields;
    size_t start = 0;
    while (true) {
        const size_t tab = line.find('\t', start);
        if (tab == std::string::npos || tab >= end) {
            fields.push_back(line.substr(start, end - start));
            return fields;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
}

namespace
{

bool
parseU64(const std::string &s, uint64_t &out, int base = 10)
{
    char *e = nullptr;
    out = std::strtoull(s.c_str(), &e, base);
    return e != s.c_str() && *e == '\0';
}

// Doubles are written with %a (hexfloat), which strtod parses back
// to the exact same bits — resumed/served reports stay identical.
bool
parseF64(const std::string &s, double &out)
{
    char *e = nullptr;
    out = std::strtod(s.c_str(), &e);
    return e != s.c_str() && *e == '\0';
}

/** Tab-separated line builder with the shared number formats. */
class LineBuilder
{
  public:
    explicit LineBuilder(const char *tag) : line(tag) {}

    void
    add(const std::string &s)
    {
        line += '\t';
        line += s;
    }

    void
    addU64(uint64_t v)
    {
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(v));
        add(buf);
    }

    void
    addF64(double v)
    {
        std::snprintf(buf, sizeof(buf), "%a", v);
        add(buf);
    }

    void
    addHex64(uint64_t v)
    {
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(v));
        add(buf);
    }

    std::string
    finish()
    {
        add(".");
        line += '\n';
        return std::move(line);
    }

  private:
    std::string line;
    char buf[64];
};

} // namespace

std::string
formatResultLine(uint64_t key, const RunResult &r)
{
    LineBuilder b(kResultTag);
    b.addHex64(key);
    b.add(r.benchmark);
    b.add(r.scheme);
    b.addU64(r.width);
    b.addU64(r.cycles);
    b.addU64(r.insts);
    b.addU64(r.committedTotal);
    b.addU64(r.goldenChecked);
    b.addF64(r.ipc);
    b.addF64(r.avgIntOccupancy);
    b.addF64(r.avgFpOccupancy);
    b.addF64(r.lifeAllocToWrite);
    b.addF64(r.lifeWriteToLastRead);
    b.addF64(r.lifeLastReadToRelease);
    b.addF64(r.branchMispredictRate);
    b.addF64(r.dl1MissRate);
    b.addF64(r.priEarlyFrees);
    b.addF64(r.erEarlyFrees);
    b.addF64(r.inlinedFrac);
    b.addF64(r.portStallsPerKInst);
    b.addF64(r.portInlineBypassFrac);
    b.addHex64(r.archSig);
    b.add(escape(r.report));
    return b.finish();
}

bool
parseResultLine(const std::string &line, uint64_t &key, RunResult &r)
{
    const auto f = splitTabs(line);
    if (f.size() != kResultFields || f[0] != kResultTag ||
        f[kResultFields - 1] != ".") {
        return false;
    }

    if (!parseU64(f[1], key, 16))
        return false;

    r.benchmark = f[2];
    r.scheme = f[3];

    uint64_t width = 0;
    bool ok = parseU64(f[4], width);
    r.width = static_cast<unsigned>(width);
    ok = ok && parseU64(f[5], r.cycles) && parseU64(f[6], r.insts);
    ok = ok && parseU64(f[7], r.committedTotal);
    ok = ok && parseU64(f[8], r.goldenChecked);
    ok = ok && parseF64(f[9], r.ipc);
    ok = ok && parseF64(f[10], r.avgIntOccupancy);
    ok = ok && parseF64(f[11], r.avgFpOccupancy);
    ok = ok && parseF64(f[12], r.lifeAllocToWrite);
    ok = ok && parseF64(f[13], r.lifeWriteToLastRead);
    ok = ok && parseF64(f[14], r.lifeLastReadToRelease);
    ok = ok && parseF64(f[15], r.branchMispredictRate);
    ok = ok && parseF64(f[16], r.dl1MissRate);
    ok = ok && parseF64(f[17], r.priEarlyFrees);
    ok = ok && parseF64(f[18], r.erEarlyFrees);
    ok = ok && parseF64(f[19], r.inlinedFrac);
    ok = ok && parseF64(f[20], r.portStallsPerKInst);
    ok = ok && parseF64(f[21], r.portInlineBypassFrac);
    ok = ok && parseU64(f[22], r.archSig, 16);
    r.report = unescape(f[23]);
    return ok;
}

std::string
formatParamsLine(const RunParams &p)
{
    LineBuilder b(kParamsTag);
    b.add(escape(p.benchmark));
    b.addU64(p.width);
    b.addU64(static_cast<uint64_t>(p.scheme));
    b.addU64(p.physRegs);
    b.addU64(p.warmupInsts);
    b.addU64(p.measureInsts);
    b.addU64(p.seed);
    b.addU64(p.checkGolden ? 1 : 0);
    b.addU64(p.schedSizeOverride);
    b.addU64(p.narrowBitsOverride);
    b.addU64(static_cast<uint64_t>(p.injectFault));
    b.addU64(p.injectFreeWithoutInline ? 1 : 0);
    b.addU64(p.prfReadPorts);
    b.addU64(p.cycleBudget);
    b.addU64(static_cast<uint64_t>(p.faultSpec.site));
    b.addU64(static_cast<uint64_t>(p.faultSpec.mutation));
    b.addU64(static_cast<uint64_t>(p.faultSpec.trigger));
    b.addU64(p.faultSpec.triggerArg);
    b.addU64(p.faultSpec.seed);
    return b.finish();
}

bool
parseParamsLine(const std::string &line, RunParams &p)
{
    const auto f = splitTabs(line);
    if (f.size() != kParamsFields || f[0] != kParamsTag ||
        f[kParamsFields - 1] != ".") {
        return false;
    }

    p.benchmark = unescape(f[1]);

    uint64_t v = 0;
    bool ok = parseU64(f[2], v);
    p.width = static_cast<unsigned>(v);
    ok = ok && parseU64(f[3], v);
    p.scheme = static_cast<Scheme>(v);
    ok = ok && parseU64(f[4], v);
    p.physRegs = static_cast<unsigned>(v);
    ok = ok && parseU64(f[5], p.warmupInsts);
    ok = ok && parseU64(f[6], p.measureInsts);
    ok = ok && parseU64(f[7], p.seed);
    ok = ok && parseU64(f[8], v);
    p.checkGolden = v != 0;
    ok = ok && parseU64(f[9], v);
    p.schedSizeOverride = static_cast<unsigned>(v);
    ok = ok && parseU64(f[10], v);
    p.narrowBitsOverride = static_cast<unsigned>(v);
    ok = ok && parseU64(f[11], v);
    p.injectFault = static_cast<core::InjectedFault>(v);
    ok = ok && parseU64(f[12], v);
    p.injectFreeWithoutInline = v != 0;
    ok = ok && parseU64(f[13], v);
    p.prfReadPorts = static_cast<unsigned>(v);
    ok = ok && parseU64(f[14], p.cycleBudget);
    ok = ok && parseU64(f[15], v);
    p.faultSpec.site = static_cast<faults::FaultSite>(v);
    ok = ok && parseU64(f[16], v);
    p.faultSpec.mutation = static_cast<faults::FaultMutation>(v);
    ok = ok && parseU64(f[17], v);
    p.faultSpec.trigger = static_cast<faults::FaultTrigger>(v);
    ok = ok && parseU64(f[18], p.faultSpec.triggerArg);
    ok = ok && parseU64(f[19], p.faultSpec.seed);
    return ok;
}

} // namespace pri::sim::codec
