/**
 * @file
 * perfbench entry point:
 *
 *   perfbench --workload chat|fork_resume|encode --seed N
 *             --seconds S --trace 0|1
 *
 * Pins the thread count, runs one workload and prints its result:
 * "note" context lines, the "host" descriptor, the "exact" counts, one
 * "metric <name> <value> <unit>" line per metric, any "FAILED" checks,
 * and last the JSON result object. An untraced run prints the
 * end-to-end metrics, a traced run the per-layer ones; the two tables
 * below are the ones BENCHMARK.json lists. Exits 0 when every check
 * passed, 1 when one failed, 2 on a usage error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/simd.h"
#include "harness.h"
#include "obs/trace.h"

namespace {

using Table = std::vector<std::pair<const char *, const char *>>;

/** End-to-end metrics, printed by untraced runs. */
const Table kEndToEnd = {
    {"tokens_per_s", "tok/s"},
    {"ttft_mean_ms", "ms"},
    {"ttft_tail_ms", "ms"},
    {"token_latency_mean_ms", "ms"},
    {"token_latency_tail_ms", "ms"},
    {"attention_rel_error", "ratio"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/** Per-layer metrics, printed by traced runs; a layer the workload
 *  never reaches reads 0. */
const Table kPerLayer = {
    {"frontend.flush_ms_p50", "ms"},
    {"frontend.steps_per_flush", "count"},
    {"frontend.create_session_ms_p50", "ms"},
    {"frontend.create_session_ms_tail", "ms"},
    {"frontend.queue_wait_ms_p50", "ms"},
    {"batcher.step_ms_p50", "ms"},
    {"batcher.step_ms_tail", "ms"},
    {"batcher.pool_efficiency", "ratio"},
    {"session_manager.restores_per_token", "1/tok"},
    {"session_manager.evictions_per_token", "1/tok"},
    {"session_manager.restore_ms_p50", "ms"},
    {"session_manager.evict_ms_p50", "ms"},
    {"session_manager.blob_kib_mean", "KiB"},
    {"session_manager.resident_mib_peak", "MiB"},
    {"page_arena.cow_copies_per_token", "1/tok"},
    {"decode_session.step_us", "us"},
    {"decode_session.restore_us", "us"},
    {"decode_session.prefill_us_per_token", "us/tok"},
    {"decode_session.step_flops", "flop"},
    {"cta.append_us", "us"},
    {"cta.fused_attend_us", "us"},
    {"cta.kv_ratio", "ratio"},
    {"cta.compress_ms", "ms"},
    {"cta.head_attention_ms", "ms"},
    {"cta.rl", "ratio"},
    {"cta.ra", "ratio"},
    {"nn.ffn_norm_ms", "ms"},
    {"core.forward_gflops", "GFLOP/s"},
    {"core.peak_fraction", "ratio"},
    {"obs.trace_overhead", "ratio"},
    {"obs.dropped_events", "count"},
    {"unattributed_share", "ratio"},
};

/** Upper bound on the pool size of every component. Two, not every
 *  vCPU of a 4-vCPU host: a pool that needs every vCPU waits on the
 *  slowest one whenever another process runs, and under such load
 *  encode's tokens_per_s spread 22 % across runs at four threads and
 *  5 % at two. */
constexpr unsigned kMaxThreads = 2;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload chat|fork_resume|encode "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
}

bool
parseOptions(int argc, char **argv, perfbench::Options &opts)
{
    bool workload = false;
    bool seed = false;
    bool seconds = false;
    bool trace = false;
    if (argc % 2 != 1)
        return false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opts.workload = value;
            workload = value == "chat" || value == "fork_resume" ||
                       value == "encode";
        } else if (key == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            seed = !value.empty() && value[0] != '-' && *end == '\0';
        } else if (key == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            seconds = !value.empty() && *end == '\0' &&
                      opts.seconds > 0 && opts.seconds <= 120;
        } else if (key == "--trace") {
            opts.trace = value == "1";
            trace = value == "0" || value == "1";
        } else {
            return false;
        }
    }
    return workload && seed && seconds && trace;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opts;
    if (!parseOptions(argc, argv, opts))
        return usage();
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    opts.threads = static_cast<int>(std::min(nproc, kMaxThreads));
    // Before anything touches the process-global pool, which the GEMM
    // backend, the batcher flushes and the per-head fan-out all share.
    setenv("CTA_THREADS", std::to_string(opts.threads).c_str(), 1);
    cta::obs::setTraceEnabled(false);

    perfbench::Result result;
    if (opts.workload == "chat")
        perfbench::runChat(opts, result);
    else if (opts.workload == "fork_resume")
        perfbench::runForkResume(opts, result);
    else
        perfbench::runEncode(opts, result);

    const double rss = perfbench::peakRssMib();
    const double fmaPeak = cta::core::simdFmaPeakGflops();
    if (opts.trace) {
        const double gflops = result.metrics["core.forward_gflops"];
        result.metrics["core.peak_fraction"] =
            gflops / (fmaPeak * opts.threads);
    } else {
        result.metrics["peak_rss_mib"] = rss;
    }

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    for (const std::string &line : result.notes)
        std::printf("note %s\n", line.c_str());
    std::printf("host {\"nproc\": %u, \"pool_threads\": %d, \"simd\": %s, "
                "\"fma_peak_gflops_per_thread\": %s, \"compiler\": %s, "
                "\"build_type\": %s}\n",
                nproc, opts.threads,
                jsonString(cta::core::simdLevelName(
                               cta::core::activeSimdLevel()))
                    .c_str(),
                jsonNumber(fmaPeak).c_str(), jsonString(__VERSION__).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str());
    std::string exact;
    for (const auto &[name, value] : result.exact)
        exact += (exact.empty() ? "" : ", ") + jsonString(name) + ": " +
                 jsonNumber(value);
    std::printf("exact {%s}\n", exact.c_str());

    const Table &table = opts.trace ? kPerLayer : kEndToEnd;
    std::set<std::string> listed;
    std::string metrics;
    for (const auto &[name, unit] : table) {
        listed.insert(name);
        double value = 0;
        const auto it = result.metrics.find(name);
        if (it != result.metrics.end())
            value = it->second;
        else if (!opts.trace)
            result.fail(std::string("end-to-end metric ") + name +
                        " was not measured");
        if (!std::isfinite(value)) {
            result.fail(std::string("metric ") + name + " is not finite");
            value = 0;
        }
        std::printf("metric %s %.17g %s\n", name, value, unit);
        metrics += (metrics.empty() ? "" : ", ") + jsonString(name) +
                   ": {\"value\": " + jsonNumber(value) +
                   ", \"unit\": " + jsonString(unit) + "}";
    }
    for (const auto &entry : result.metrics)
        if (listed.count(entry.first) == 0)
            result.fail("metric " + entry.first + " is not in the " +
                        (opts.trace ? "per-layer" : "end-to-end") +
                        " table");

    for (const std::string &why : result.failures)
        std::printf("FAILED %s\n", why.c_str());
    const std::uint64_t attempted =
        std::max<std::uint64_t>(result.attempted, 1);
    const auto failed = static_cast<std::uint64_t>(result.failures.size());
    std::printf("failed_share %.17g (%llu failed of %llu attempted)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    const bool correct = result.failures.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics.c_str());
    return correct ? 0 : 1;
}
