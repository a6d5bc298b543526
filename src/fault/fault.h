/**
 * @file
 * Seeded, deterministic fault injection for the whole stack.
 *
 * CTA is a hardware-software co-design, so faults can originate on
 * either side: a flipped SRAM word in the CIM/CAG/PAG datapath (the
 * charge-domain and SRAM-based in-memory attention accelerators this
 * model family covers are exactly the parts that bit-rot), a
 * perturbed LSH bucket, a corrupted evicted-session blob, or queue
 * pressure in the serving layer. This library gives every such site a
 * registered, *deterministic* injection hook so robustness claims can
 * be soaked (`serve_scenarios fault_soak`) instead of asserted.
 *
 * Determinism model — stateless, content-keyed draws. An injection
 * decision is a pure function of (seed, site, key): no global draw
 * counter, no RNG stream shared across threads. Call sites derive the
 * key from the operand itself (hash of a token's hash code, blob
 * bytes, a serial eviction ordinal, ...), so the same workload under
 * the same CTA_FAULT_SEED/CTA_FAULT_RATE faults the same operations
 * regardless of thread count or scheduling — which is what lets the
 * fault soak demand bit-identical outputs for every session the
 * fault set did not touch.
 *
 * Configuration (read once at process start, overridable with
 * setConfig() from tests/benches):
 *
 *   CTA_FAULT_SEED   integer seed folded into every draw (default 0)
 *   CTA_FAULT_RATE   per-opportunity injection probability in [0, 1]
 *                    (default 0 — fully disarmed)
 *   CTA_FAULT_SITES  comma-separated subset of
 *                    sram,cim,cag,pag,lsh,snapshot,queue,shard
 *                    (default "all"; "none" disarms by site)
 *
 * All three follow the strict env contract (core/env.h): malformed
 * values are fatal, never silently defaulted.
 *
 * Zero-cost guarantees. With CTA_FAULT_RATE=0 every hook reduces to
 * one branch on a process-global double, and no operand is touched —
 * outputs are bit-identical to a build without this library. Building
 * with -DCTA_FAULT=OFF compiles the hooks away entirely (armed()
 * becomes constexpr false), and cta_fault is not linked at all.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cta::fault {

/** Registered injection sites (one bit each in FaultConfig::sites). */
enum class Site : unsigned
{
    SramWord = 0, ///< sim/memory: bit flip in a stored SRAM word
    CimOperand,   ///< cta_accel/cim: bit flip in a streamed hash code
    CagOperand,   ///< cta_accel/cag: faulty centroid operand read
    PagOperand,   ///< cta_accel/pag: faulty CS/AP buffer read
    LshBucket,    ///< cta/lsh: off-by-one bucket in a token's code
    SnapshotBlob, ///< serve: byte corruption / truncation of a blob
    QueueDelay,   ///< serve/batcher: artificial deadline pressure
    ShardFault,   ///< serve/frontend: a whole shard wedges (its flush
                  ///< fails and every dispatched step bounces) or is
                  ///< poisoned (a resident snapshot is corrupted) —
                  ///< the shard-level fault domain the front-end's
                  ///< health machine and failover path must survive
};

inline constexpr unsigned kSiteCount = 8;
inline constexpr unsigned kAllSites = (1u << kSiteCount) - 1;

/** Short stable name of @p site ("sram", "cim", ...). */
constexpr const char *
siteName(Site site)
{
    switch (site) {
    case Site::SramWord:
        return "sram";
    case Site::CimOperand:
        return "cim";
    case Site::CagOperand:
        return "cag";
    case Site::PagOperand:
        return "pag";
    case Site::LshBucket:
        return "lsh";
    case Site::SnapshotBlob:
        return "snapshot";
    case Site::QueueDelay:
        return "queue";
    case Site::ShardFault:
        return "shard";
    }
    return "?";
}

/** Injection configuration; see the env knobs above. */
struct FaultConfig
{
    std::uint64_t seed = 0;
    double rate = 0;            ///< per-opportunity probability
    unsigned sites = kAllSites; ///< bit i enables Site(i)
};

#ifndef CTA_FAULT_DISABLED

/** Parses CTA_FAULT_SEED / CTA_FAULT_RATE / CTA_FAULT_SITES
 *  strictly; unset knobs keep the FaultConfig defaults. */
FaultConfig configFromEnv();

namespace detail {
/** Process config, published as PODs so armed() stays one load. */
extern double g_rate;
extern unsigned g_sites;
extern std::uint64_t g_seed;
} // namespace detail

/** The active process configuration. */
FaultConfig config();

/**
 * Replaces the process configuration (tests and the fault soak; env
 * wins only as the initial value). Must not race in-flight work —
 * reconfigure between flushes, not during one.
 */
void setConfig(const FaultConfig &config);

/** True when @p site can inject at all (rate > 0 and site enabled).
 *  Hooks guard on this so a disarmed run costs one branch. */
inline bool
armed(Site site)
{
    return detail::g_rate > 0 &&
           ((detail::g_sites >> static_cast<unsigned>(site)) & 1u);
}

/** Deterministic 64-bit mix of (seed, site, key). */
std::uint64_t mix(Site site, std::uint64_t key);

/** FNV-1a over raw bytes — the canonical content key. */
std::uint64_t hashBytes(const void *data, std::size_t size);

/**
 * The injection decision: true with probability rate, as a pure
 * function of (seed, site, key). Records the injection (per-site and
 * per-thread counters) when it fires. Callers that get `true` MUST
 * perform the corresponding corruption — the counters are the soak's
 * ground truth.
 */
bool inject(Site site, std::uint64_t key);

/** Flips one deterministically chosen bit of @p value when the draw
 *  for (site, key) fires; returns whether it did. */
bool flipInt32Bit(Site site, std::uint64_t key, std::int32_t &value);

/** Moves @p bucket one step up or down (saturating) when the draw
 *  fires — an LSH boundary flip; returns whether it did. */
bool perturbBucket(Site site, std::uint64_t key, std::int32_t &bucket);

/**
 * Corrupts @p blob in place when the draw fires: usually one flipped
 * byte, sometimes a truncated tail (both deterministic in the key).
 * Returns whether the blob was modified.
 */
bool corruptBlob(Site site, std::uint64_t key,
                 std::vector<std::uint8_t> &blob);

/**
 * Deterministic number of faulty words among @p words accesses:
 * floor(words * rate) plus one more with the fractional probability
 * (so the expectation is exact without per-word draws). Records the
 * returned count.
 */
std::uint64_t faultyWords(Site site, std::uint64_t key,
                          std::uint64_t words);

/** Injections recorded by the *calling thread* since thread start.
 *  A serial consumer (e.g. one decode step) brackets its work with
 *  two reads to learn whether it was faulted. */
std::uint64_t threadInjections();

/** Process-wide injections recorded at @p site. */
std::uint64_t totalInjections(Site site);

/** Process-wide injections across all sites. */
std::uint64_t totalInjections();

/** Zeroes the per-site totals (bench phases; per-thread counters are
 *  monotonic and never reset). */
void resetInjectionCounters();

#else // CTA_FAULT_DISABLED: every hook folds to nothing at compile
      // time, and cta_fault is not linked.

inline FaultConfig configFromEnv() { return {}; }
inline FaultConfig config() { return {}; }
inline void setConfig(const FaultConfig &) {}
constexpr bool armed(Site) { return false; }
inline std::uint64_t mix(Site, std::uint64_t) { return 0; }
inline std::uint64_t hashBytes(const void *, std::size_t) { return 0; }
inline bool inject(Site, std::uint64_t) { return false; }
inline bool flipInt32Bit(Site, std::uint64_t, std::int32_t &)
{
    return false;
}
inline bool perturbBucket(Site, std::uint64_t, std::int32_t &)
{
    return false;
}
inline bool corruptBlob(Site, std::uint64_t,
                        std::vector<std::uint8_t> &)
{
    return false;
}
inline std::uint64_t faultyWords(Site, std::uint64_t, std::uint64_t)
{
    return 0;
}
inline std::uint64_t threadInjections() { return 0; }
inline std::uint64_t totalInjections(Site) { return 0; }
inline std::uint64_t totalInjections() { return 0; }
inline void resetInjectionCounters() {}

#endif // CTA_FAULT_DISABLED

} // namespace cta::fault
