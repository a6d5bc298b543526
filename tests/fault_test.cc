/**
 * @file
 * Tests for the fault-injection library: stateless content-keyed
 * determinism, rate-0 and rate-1 limits, site masking, injection
 * accounting (per-site, per-thread), the analytic faulty-word count,
 * and the strict env contract of CTA_FAULT_SEED / CTA_FAULT_RATE /
 * CTA_FAULT_SITES.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "cta/lsh.h"
#include "fault/fault.h"

namespace {

namespace fault = cta::fault;
using fault::FaultConfig;
using fault::Site;

/** Restores the process fault configuration on scope exit so tests
 *  cannot leak an armed config into each other. */
struct ConfigGuard
{
    FaultConfig saved = fault::config();
    ~ConfigGuard() { fault::setConfig(saved); }
};

unsigned
siteBit(Site site)
{
    return 1u << static_cast<unsigned>(site);
}

TEST(FaultTest, RateZeroIsFullyDisarmed)
{
    ConfigGuard guard;
    fault::setConfig({/*seed=*/7, /*rate=*/0.0, fault::kAllSites});
    const std::uint64_t before = fault::totalInjections();

    for (unsigned s = 0; s < fault::kSiteCount; ++s) {
        EXPECT_FALSE(fault::armed(static_cast<Site>(s)));
        EXPECT_FALSE(fault::inject(static_cast<Site>(s), 12345u + s));
    }
    std::int32_t value = 42;
    EXPECT_FALSE(fault::flipInt32Bit(Site::CimOperand, 1, value));
    EXPECT_EQ(value, 42);
    std::int32_t bucket = 5;
    EXPECT_FALSE(fault::perturbBucket(Site::LshBucket, 2, bucket));
    EXPECT_EQ(bucket, 5);
    std::vector<std::uint8_t> blob(16, 0xCD);
    EXPECT_FALSE(fault::corruptBlob(Site::SnapshotBlob, 3, blob));
    EXPECT_EQ(blob, std::vector<std::uint8_t>(16, 0xCD));
    EXPECT_EQ(fault::faultyWords(Site::SramWord, 4, 1000), 0u);

    EXPECT_EQ(fault::totalInjections(), before);
}

TEST(FaultTest, RateOneAlwaysFiresAndCorrupts)
{
    ConfigGuard guard;
    fault::setConfig({/*seed=*/11, /*rate=*/1.0, fault::kAllSites});

    for (std::uint64_t key = 0; key < 64; ++key)
        EXPECT_TRUE(fault::inject(Site::QueueDelay, key));

    std::int32_t value = 42;
    EXPECT_TRUE(fault::flipInt32Bit(Site::CimOperand, 9, value));
    EXPECT_NE(value, 42); // exactly one bit differs
    std::int32_t delta = value ^ 42;
    EXPECT_EQ(delta & (delta - 1), 0);

    std::int32_t bucket = 100;
    EXPECT_TRUE(fault::perturbBucket(Site::LshBucket, 9, bucket));
    EXPECT_TRUE(bucket == 99 || bucket == 101);

    const std::vector<std::uint8_t> original(24, 0x5A);
    std::vector<std::uint8_t> blob = original;
    EXPECT_TRUE(fault::corruptBlob(Site::SnapshotBlob, 9, blob));
    EXPECT_TRUE(blob != original); // flipped byte or truncated tail

    std::vector<std::uint8_t> empty;
    EXPECT_FALSE(fault::corruptBlob(Site::SnapshotBlob, 10, empty));

    EXPECT_EQ(fault::faultyWords(Site::SramWord, 9, 1000), 1000u);
}

TEST(FaultTest, DecisionsAreAPureFunctionOfSeedSiteKey)
{
    ConfigGuard guard;
    const FaultConfig config{/*seed=*/99, /*rate=*/0.3,
                             fault::kAllSites};

    const auto sample = [](std::vector<bool> *out) {
        out->clear();
        for (std::uint64_t key = 0; key < 512; ++key)
            out->push_back(fault::inject(Site::LshBucket, key));
    };
    std::vector<bool> first, second;
    fault::setConfig(config);
    sample(&first);
    sample(&second); // no hidden draw counter: rerun == first run
    EXPECT_EQ(first, second);

    // mix() itself is pure.
    EXPECT_EQ(fault::mix(Site::SramWord, 77),
              fault::mix(Site::SramWord, 77));
    EXPECT_NE(fault::mix(Site::SramWord, 77),
              fault::mix(Site::CimOperand, 77));

    // A different seed reshapes the fault set.
    fault::setConfig({/*seed=*/100, /*rate=*/0.3, fault::kAllSites});
    std::vector<bool> reseeded;
    sample(&reseeded);
    EXPECT_NE(first, reseeded);

    // The rate is roughly honoured (pure smoke bound, not a
    // statistical test).
    const auto fired = static_cast<std::size_t>(
        std::count(first.begin(), first.end(), true));
    EXPECT_GT(fired, 512u / 10);
    EXPECT_LT(fired, 512u / 2);
}

TEST(FaultTest, SiteMaskGatesInjection)
{
    ConfigGuard guard;
    fault::setConfig(
        {/*seed=*/3, /*rate=*/1.0, siteBit(Site::SnapshotBlob)});
    EXPECT_TRUE(fault::armed(Site::SnapshotBlob));
    EXPECT_TRUE(fault::inject(Site::SnapshotBlob, 1));
    for (unsigned s = 0; s < fault::kSiteCount; ++s) {
        const auto site = static_cast<Site>(s);
        if (site == Site::SnapshotBlob)
            continue;
        EXPECT_FALSE(fault::armed(site)) << fault::siteName(site);
        EXPECT_FALSE(fault::inject(site, 1)) << fault::siteName(site);
    }
}

TEST(FaultTest, CountersRecordPerSiteAndPerThread)
{
    ConfigGuard guard;
    fault::setConfig({/*seed=*/5, /*rate=*/1.0, fault::kAllSites});
    fault::resetInjectionCounters();

    const std::uint64_t threadBefore = fault::threadInjections();
    for (std::uint64_t key = 0; key < 5; ++key)
        EXPECT_TRUE(fault::inject(Site::LshBucket, key));
    EXPECT_EQ(fault::totalInjections(Site::LshBucket), 5u);
    EXPECT_EQ(fault::totalInjections(Site::QueueDelay), 0u);
    EXPECT_EQ(fault::totalInjections(), 5u);
    EXPECT_EQ(fault::threadInjections(), threadBefore + 5);

    fault::resetInjectionCounters();
    EXPECT_EQ(fault::totalInjections(), 0u);
}

TEST(FaultTest, LshBucketDrawsMatchBetweenBatchAndPerTokenHashing)
{
    // The lsh site draws once per token, keyed on the produced code:
    // hashing a prompt as one batch must perturb exactly the tokens,
    // and exactly the buckets, that hashing it token by token does.
    ConfigGuard guard;
    cta::core::Rng rng(21);
    const cta::core::Index n = 64, dim = 19, l = 6;
    const auto params = cta::alg::LshParams::sample(l, dim, 1.0f, rng);
    const cta::core::Matrix x = cta::core::Matrix::randomNormal(n, dim, rng);
    const auto clean = cta::alg::hashTokens(x, params);

    fault::setConfig({/*seed=*/31, /*rate=*/0.3, fault::kAllSites});
    const std::uint64_t start = fault::totalInjections(Site::LshBucket);
    const auto batch = cta::alg::hashTokens(x, params);
    const std::uint64_t by_batch =
        fault::totalInjections(Site::LshBucket) - start;
    std::vector<std::int32_t> code(static_cast<std::size_t>(l));
    cta::core::Index perturbed = 0;
    for (cta::core::Index i = 0; i < n; ++i) {
        cta::alg::hashRows(x.rowSlice(i, i + 1), params, code);
        bool differs = false;
        for (cta::core::Index j = 0; j < l; ++j) {
            EXPECT_EQ(code[static_cast<std::size_t>(j)], batch(i, j))
                << "token " << i << " bucket " << j;
            differs = differs || batch(i, j) != clean(i, j);
        }
        perturbed += differs;
    }
    const std::uint64_t by_token =
        fault::totalInjections(Site::LshBucket) - start - by_batch;
    EXPECT_EQ(by_token, by_batch);
    EXPECT_GT(by_batch, 0u);
    EXPECT_EQ(static_cast<std::uint64_t>(perturbed), by_batch);
}

TEST(FaultTest, FaultyWordsMatchesTheAnalyticCount)
{
    ConfigGuard guard;
    fault::setConfig({/*seed=*/17, /*rate=*/0.5, fault::kAllSites});
    // floor(101 * 0.5) = 50 plus at most one fractional extra.
    const std::uint64_t n =
        fault::faultyWords(Site::SramWord, 21, 101);
    EXPECT_GE(n, 50u);
    EXPECT_LE(n, 51u);
    // Deterministic in the key.
    EXPECT_EQ(n, fault::faultyWords(Site::SramWord, 21, 101));
    EXPECT_EQ(fault::faultyWords(Site::SramWord, 21, 0), 0u);
}

TEST(FaultTest, ConfigFromEnvParsesKnobsStrictly)
{
    ::setenv("CTA_FAULT_SEED", "42", 1);
    ::setenv("CTA_FAULT_RATE", "0.25", 1);
    ::setenv("CTA_FAULT_SITES", "lsh,snapshot", 1);
    const FaultConfig config = fault::configFromEnv();
    EXPECT_EQ(config.seed, 42u);
    EXPECT_DOUBLE_EQ(config.rate, 0.25);
    EXPECT_EQ(config.sites,
              siteBit(Site::LshBucket) | siteBit(Site::SnapshotBlob));

    ::setenv("CTA_FAULT_SITES", "none", 1);
    EXPECT_EQ(fault::configFromEnv().sites, 0u);
    ::setenv("CTA_FAULT_SITES", "all", 1);
    EXPECT_EQ(fault::configFromEnv().sites, fault::kAllSites);

    ::unsetenv("CTA_FAULT_SEED");
    ::unsetenv("CTA_FAULT_RATE");
    ::unsetenv("CTA_FAULT_SITES");
    const FaultConfig defaults = fault::configFromEnv();
    EXPECT_EQ(defaults.seed, 0u);
    EXPECT_DOUBLE_EQ(defaults.rate, 0.0);
    EXPECT_EQ(defaults.sites, fault::kAllSites);
}

TEST(FaultDeathTest, MalformedEnvKnobsAreFatal)
{
    ::setenv("CTA_FAULT_RATE", "1.5", 1);
    EXPECT_DEATH(fault::configFromEnv(), "");
    ::setenv("CTA_FAULT_RATE", "lots", 1);
    EXPECT_DEATH(fault::configFromEnv(), "");
    ::unsetenv("CTA_FAULT_RATE");

    ::setenv("CTA_FAULT_SITES", "sram,bogus", 1);
    EXPECT_DEATH(fault::configFromEnv(), "");
    ::unsetenv("CTA_FAULT_SITES");
}

} // namespace
