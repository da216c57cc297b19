#include "store.hh"

#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "common/logging.hh"
#include "common/strfmt.hh"
#include "sim/result_codec.hh"

namespace fs = std::filesystem;

namespace pri::sweepd
{

namespace
{

/** The version stamp a store directory must carry to be served. */
std::string
versionStamp()
{
    return fmtStr("PRISTORE1 {} {} {}\n", sim::codec::kResultTag,
                  sim::codec::kResultFields, sim::codec::kParamsTag);
}

/** Read a whole small file; empty string when absent. */
std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

/**
 * Write @p contents to @p path via a temp file in the same
 * directory plus rename(2), so the path only ever names a complete
 * old or complete new file.
 */
void
atomicWrite(const std::string &path, const std::string &contents)
{
    const std::string tmp = fmtStr("{}.tmp.{}", path, ::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr)
        fatal("store: cannot write '{}'", tmp);
    if (std::fwrite(contents.data(), 1, contents.size(), f) !=
        contents.size()) {
        std::fclose(f);
        std::remove(tmp.c_str());
        fatal("store: short write to '{}'", tmp);
    }
    std::fclose(f);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("store: cannot publish '{}'", path);
    }
}

} // namespace

ResultStore::ResultStore(std::string dir) : rootDir(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(rootDir, ec);
    if (ec)
        fatal("store: cannot create '{}': {}", rootDir, ec.message());
    checkVersion();
    loadAll();
}

std::string
ResultStore::bucketPath(unsigned bucket) const
{
    char name[16];
    std::snprintf(name, sizeof(name), "/b%02x.tsv", bucket);
    return rootDir + name;
}

void
ResultStore::checkVersion()
{
    const std::string meta_path = rootDir + "/meta";
    const std::string want = versionStamp();
    const std::string have = slurp(meta_path);
    if (have == want)
        return;

    // Stale (or absent) stamp: a params-hash audit / field-list
    // change shipped since this store was written. Serving any old
    // record under a new-format key would be silent skew, so drop
    // every bucket and restamp. Abandoned .tmp files from a killed
    // publish go with them.
    if (!have.empty()) {
        warn("store '{}': version stamp changed, invalidating",
             rootDir);
        invalidated = true;
    }
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(rootDir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name != "meta")
            fs::remove(entry.path(), ec);
    }
    atomicWrite(meta_path, want);
}

void
ResultStore::loadAll()
{
    for (unsigned bucket = 0; bucket < 256; ++bucket) {
        std::FILE *in = std::fopen(bucketPath(bucket).c_str(), "r");
        if (in == nullptr)
            continue;
        std::string line;
        int c;
        auto take = [&] {
            uint64_t key = 0;
            sim::RunResult r;
            if (sim::codec::parseResultLine(line, key, r) &&
                bucketOf(key) == bucket) {
                if (buckets[bucket].emplace(key, std::move(r))
                        .second) {
                    ++loaded;
                    ++count;
                }
            } else {
                ++torn;
            }
            line.clear();
        };
        while ((c = std::fgetc(in)) != EOF) {
            if (c == '\n')
                take();
            else
                line += static_cast<char>(c);
        }
        // Trailing fragment without a newline: the classic torn
        // write from a pre-atomic-rename producer.
        if (!line.empty())
            take();
        std::fclose(in);
    }
    if (torn > 0) {
        warn("store '{}': skipped {} malformed line(s); those "
             "points will re-simulate",
             rootDir, torn);
    }
}

void
ResultStore::rewriteBucket(unsigned bucket) const
{
    std::string contents;
    const auto it = buckets.find(bucket);
    if (it != buckets.end()) {
        for (const auto &[key, r] : it->second)
            contents += sim::codec::formatResultLine(key, r);
    }
    atomicWrite(bucketPath(bucket), contents);
}

bool
ResultStore::lookup(uint64_t key, sim::RunResult &out) const
{
    std::lock_guard<std::mutex> lock(mu);
    const auto bit = buckets.find(bucketOf(key));
    if (bit == buckets.end())
        return false;
    const auto it = bit->second.find(key);
    if (it == bit->second.end())
        return false;
    out = it->second;
    return true;
}

void
ResultStore::publish(uint64_t key, const sim::RunResult &result)
{
    std::lock_guard<std::mutex> lock(mu);
    const unsigned bucket = bucketOf(key);
    if (!buckets[bucket].emplace(key, result).second)
        return; // deterministic duplicate; already on disk
    ++count;
    rewriteBucket(bucket);
}

size_t
ResultStore::entries() const
{
    std::lock_guard<std::mutex> lock(mu);
    return count;
}

} // namespace pri::sweepd
