/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks: machine
 * models for the paper's two systems, the artifact's Apophenia
 * configuration, and table printing.
 *
 * Absolute throughputs are simulated (see "Build and test" in the
 * README) and are not expected to match the paper's hardware numbers;
 * the *shapes* — who wins, by what factor, where the crossovers are —
 * are the reproduction target.
 */
#ifndef APOPHENIA_BENCH_BENCH_UTIL_H
#define APOPHENIA_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "core/config.h"
#include "sim/harness.h"

namespace apo::bench {

// -- JSON record-file helpers (BENCH_micro_repeats.json) --------------------
//
// The perf-record file is one JSON object shared by several writers:
// its top-level scalars and the members micro_repeats writes are that
// bench's records, and every other record bench owns one object
// member. Each writer rewrites only its own members, keeping their
// place in the file so re-runs produce value-only diffs. The helpers
// split the file into top-level members without a JSON library (it is
// machine-written: no string holds an escaped quote) and render them
// back in its one-member-per-line layout.

using JsonMembers = std::vector<std::pair<std::string, std::string>>;

inline std::string ReadFileOrEmpty(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        return "";
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** The top-level members of a JSON object text, in file order, as
 * (key, raw value text) pairs. */
inline JsonMembers TopLevelJsonMembers(const std::string& content)
{
    JsonMembers members;
    std::size_t at = content.find('{');
    while (at < content.size()) {
        const std::size_t open = content.find('"', at + 1);
        const std::size_t close = content.find('"', open + 1);
        const std::size_t colon = content.find(':', close);
        if (open == std::string::npos || colon == std::string::npos) {
            break;
        }
        // The value ends at the first ',' or closing brace outside any
        // nested value or string.
        std::size_t end = colon + 1;
        int depth = 0;
        bool in_string = false;
        for (; end < content.size(); ++end) {
            const char c = content[end];
            if (in_string) {
                in_string = c != '"';
            } else if (c == '"') {
                in_string = true;
            } else if (c == '{' || c == '[') {
                ++depth;
            } else if ((c == '}' || c == ']') && depth-- == 0) {
                break;
            } else if (c == ',' && depth == 0) {
                break;
            }
        }
        const std::size_t begin =
            content.find_first_not_of(" \n\t", colon + 1);
        if (begin >= end) {
            break;
        }
        const std::size_t last = content.find_last_not_of(" \n\t", end - 1);
        members.emplace_back(content.substr(open + 1, close - open - 1),
                             content.substr(begin, last + 1 - begin));
        if (end >= content.size() || content[end] != ',') {
            break;
        }
        at = end;
    }
    return members;
}

/** The record file's layout: one member per line, two-space indent. */
inline std::string RenderJsonMembers(const JsonMembers& members)
{
    std::string out = "{";
    const char* separator = "\n";
    for (const auto& [key, value] : members) {
        out += separator;
        out += "  \"" + key + "\": " + value;
        separator = ",\n";
    }
    return out + "\n}\n";
}

/** `fresh` (the rewriting bench's whole record, a JSON object text)
 * followed by every object member of `existing` that `fresh` lacks:
 * the other benches' records survive without being named, and the
 * rewriting bench's own scalars that `fresh` no longer writes go. */
inline std::string KeepOtherJsonMembers(const std::string& existing,
                                        const std::string& fresh)
{
    JsonMembers members = TopLevelJsonMembers(fresh);
    for (auto& member : TopLevelJsonMembers(existing)) {
        if (member.second.front() == '{' &&
            std::none_of(members.begin(), members.end(),
                         [&](const auto& kept) {
                             return kept.first == member.first;
                         })) {
            members.push_back(std::move(member));
        }
    }
    return RenderJsonMembers(members);
}

/** Replace the file at `path` with `text`. Returns 0 on success. */
inline int WriteFileOrComplain(const std::string& path,
                               const std::string& text)
{
    std::ofstream out(path, std::ios::trunc);
    if (!(out << text)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    return 0;
}

/** Merge `"key": section` into the JSON object file at `path`,
 * replacing the member in place when it exists and appending it
 * otherwise. Creates the file when absent. Returns 0 on success. */
inline int MergeIntoJson(const std::string& path, const std::string& key,
                         const std::string& section)
{
    JsonMembers members = TopLevelJsonMembers(ReadFileOrEmpty(path));
    const auto it =
        std::find_if(members.begin(), members.end(),
                     [&](const auto& member) { return member.first == key; });
    if (it != members.end()) {
        it->second = section;
    } else {
        members.emplace_back(key, section);
    }
    return WriteFileOrComplain(path, RenderJsonMembers(members));
}

/** The host's thread count as every bench section records it —
 * wall-clock-derived metrics (speedups, tokens/sec) are only
 * comparable across record generations with the host pinned next to
 * them. Never 0 (the unknown-hardware fallback is 1). */
inline unsigned HardwareConcurrency()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** The host-pinning JSON fragment every bench section embeds next to
 * its wall-clock metrics: `"hardware_concurrency": N`, plus
 * `"apo_jobs": J` when the APO_JOBS thread-count override is set to
 * a positive number — a record produced under an override is only
 * comparable to records produced under the same one, so the override
 * is pinned in the record rather than silently shaping it. (A set
 * but non-numeric/zero APO_JOBS is ignored here exactly as the
 * engine ignores it.) No trailing comma. */
inline std::string ConcurrencyJson()
{
    std::string out = "\"hardware_concurrency\": " +
                      std::to_string(HardwareConcurrency());
    if (const char* jobs = std::getenv("APO_JOBS")) {
        char* end = nullptr;
        const unsigned long value = std::strtoul(jobs, &end, 10);
        if (end != jobs && *end == '\0' && value > 0) {
            out += ", \"apo_jobs\": " + std::to_string(value);
        }
    }
    return out;
}

/** Perlmutter: 4 NVIDIA A100s per node (paper section 6). */
inline apps::MachineConfig Perlmutter(std::size_t gpus)
{
    apps::MachineConfig m;
    m.gpus_per_node = 4;
    m.nodes = std::max<std::size_t>(1, gpus / m.gpus_per_node);
    if (gpus < m.gpus_per_node) {
        m.gpus_per_node = gpus;
    }
    return m;
}

/** Eos: 8 NVIDIA H100s per node (paper section 6). */
inline apps::MachineConfig Eos(std::size_t gpus)
{
    apps::MachineConfig m;
    m.gpus_per_node = 8;
    m.nodes = std::max<std::size_t>(1, gpus / m.gpus_per_node);
    if (gpus < m.gpus_per_node) {
        m.gpus_per_node = gpus;
    }
    return m;
}

/** The artifact's standard Apophenia configuration (appendix A.5). */
inline core::ApopheniaConfig ArtifactConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 25;
    config.max_trace_length = 5000;
    config.batchsize = 5000;
    config.multi_scale_factor = 250;
    return config;
}

/** Tracks the min/max of a ratio across a sweep (the "0.92x-1.03x"
 * style bands the paper reports). */
class RatioBand {
  public:
    void Add(double value)
    {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        seen_ = true;
    }
    std::string Format() const
    {
        if (!seen_) {
            return "n/a";
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.2fx-%.2fx", min_, max_);
        return buf;
    }

  private:
    double min_ = 1e300;
    double max_ = -1e300;
    bool seen_ = false;
};

/** Run one experiment with a freshly constructed application. */
template <typename App, typename Options>
sim::ExperimentResult RunOne(const Options& app_options,
                             sim::TracingMode mode,
                             const apps::MachineConfig& machine,
                             std::size_t iterations,
                             const core::ApopheniaConfig& auto_config)
{
    App app(app_options);
    sim::ExperimentOptions options;
    options.mode = mode;
    options.machine = machine;
    options.iterations = iterations;
    options.auto_config = auto_config;
    return sim::RunExperiment(app, options);
}

}  // namespace apo::bench

#endif  // APOPHENIA_BENCH_BENCH_UTIL_H
