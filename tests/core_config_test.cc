/**
 * @file
 * Tests for Apophenia's configuration and flag parsing (the artifact's
 * -lg: flags, paper appendix A.7).
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"

namespace apo::core {
namespace {

std::vector<std::string> Args(std::initializer_list<const char*> list)
{
    return {list.begin(), list.end()};
}

TEST(Config, DefaultsMatchArtifact)
{
    const ApopheniaConfig config;
    EXPECT_TRUE(config.enabled);
    EXPECT_EQ(config.batchsize, 5000u);
    EXPECT_EQ(config.max_trace_length, 5000u);
    EXPECT_EQ(config.multi_scale_factor, 250u);
    EXPECT_EQ(config.identifier_algorithm, IdentifierAlgorithm::kMultiScale);
    EXPECT_EQ(config.repeats_algorithm,
              RepeatsAlgorithm::kQuickMatchingOfSubstrings);
}

TEST(Config, ParsesArtifactCommandLine)
{
    // The exact flag set from the paper's artifact appendix, plus
    // switches this reproduction retired, which are not flags.
    auto args = Args({"candle_uno", "--warmup", "30",
                      "-lg:enable_automatic_tracing",
                      "-lg:auto_trace:min_trace_length", "25",
                      "-lg:auto_trace:max_trace_length", "200",
                      "-lg:auto_trace:batchsize", "5000",
                      "-lg:auto_trace:identifier_algorithm", "multi-scale",
                      "-lg:auto_trace:multi_scale_factor", "500",
                      "-lg:auto_trace:repeats_algorithm",
                      "quick_matching_of_substrings", "-ll:gpu", "8",
                      "-lg:auto_trace:copy_slices_at_launch",
                      "-lg:auto_trace:buffer_all_launches",
                      "-lg:auto_trace:no_shared_decisions",
                      "-lg:auto_trace:no_checkpoints",
                      "-lg:auto_trace:no_overload_control",
                      "-lg:auto_trace:no_incremental_mining",
                      "-lg:auto_trace:incremental_ring_windows", "8",
                      "-lg:auto_trace:ingest_mode", "manual"});
    const ApopheniaConfig config = ParseApopheniaFlags(args);
    EXPECT_TRUE(config.enabled);
    EXPECT_EQ(config.min_trace_length, 25u);
    EXPECT_EQ(config.max_trace_length, 200u);
    EXPECT_EQ(config.batchsize, 5000u);
    EXPECT_EQ(config.multi_scale_factor, 500u);
    // Unrecognized arguments survive, in order.
    const std::vector<std::string> rest{
        "candle_uno", "--warmup", "30", "-ll:gpu", "8",
        "-lg:auto_trace:copy_slices_at_launch",
        "-lg:auto_trace:buffer_all_launches",
        "-lg:auto_trace:no_shared_decisions",
        "-lg:auto_trace:no_checkpoints",
        "-lg:auto_trace:no_overload_control",
        "-lg:auto_trace:no_incremental_mining",
        "-lg:auto_trace:incremental_ring_windows", "8",
        "-lg:auto_trace:ingest_mode", "manual"};
    EXPECT_EQ(args, rest);
}

TEST(Config, DisabledWithoutEnableFlag)
{
    auto args = Args({"-lg:auto_trace:batchsize", "100"});
    EXPECT_FALSE(ParseApopheniaFlags(args).enabled);
}

TEST(Config, AlgorithmNames)
{
    const std::pair<const char*, RepeatsAlgorithm> cases[] = {
        {"quick_matching_of_substrings",
         RepeatsAlgorithm::kQuickMatchingOfSubstrings},
        {"tandem", RepeatsAlgorithm::kTandem},
        {"lzw", RepeatsAlgorithm::kLzw},
        {"quadratic", RepeatsAlgorithm::kQuadratic}};
    for (const auto& [name, expected] : cases) {
        auto args = Args({"-lg:auto_trace:repeats_algorithm", name});
        EXPECT_EQ(ParseApopheniaFlags(args).repeats_algorithm, expected);
    }
    auto args = Args({"-lg:auto_trace:identifier_algorithm", "batched"});
    EXPECT_EQ(ParseApopheniaFlags(args).identifier_algorithm,
              IdentifierAlgorithm::kBatched);
}

TEST(Config, RejectsMalformedValues)
{
    {
        auto args = Args({"-lg:auto_trace:batchsize", "abc"});
        EXPECT_THROW(ParseApopheniaFlags(args), std::invalid_argument);
    }
    {
        auto args = Args({"-lg:auto_trace:batchsize"});
        EXPECT_THROW(ParseApopheniaFlags(args), std::invalid_argument);
    }
    {
        auto args = Args({"-lg:auto_trace:repeats_algorithm", "magic"});
        EXPECT_THROW(ParseApopheniaFlags(args), std::invalid_argument);
    }
    {
        auto args = Args({"-lg:auto_trace:identifier_algorithm", "magic"});
        EXPECT_THROW(ParseApopheniaFlags(args), std::invalid_argument);
    }
    {
        auto args = Args({"-lg:auto_trace:min_trace_length", "0"});
        EXPECT_THROW(ParseApopheniaFlags(args), std::invalid_argument);
    }
    {
        // max below min is inconsistent.
        auto args = Args({"-lg:auto_trace:min_trace_length", "100",
                          "-lg:auto_trace:max_trace_length", "10"});
        EXPECT_THROW(ParseApopheniaFlags(args), std::invalid_argument);
    }
}

TEST(Config, NumberWithTrailingGarbageRejected)
{
    auto args = Args({"-lg:auto_trace:batchsize", "100x"});
    EXPECT_THROW(ParseApopheniaFlags(args), std::invalid_argument);
}

TEST(Config, NegativeAndPaddedNumbersRejected)
{
    // std::stoull accepted all of these, wrapping "-1" to 2^64-1.
    const std::pair<const char*, const char*> cases[] = {
        {"-lg:auto_trace:batchsize", "-1"},
        {"-lg:auto_trace:multi_scale_factor", "-250"},
        {"-lg:auto_trace:history_block_size", "-512"},
        {"-lg:window", "-1"},
        {"-lg:auto_trace:batchsize", " 5000"},
    };
    for (const auto& [flag, value] : cases) {
        SCOPED_TRACE(testing::Message() << flag << " '" << value << "'");
        auto args = Args({flag, value});
        EXPECT_THROW(ParseApopheniaFlags(args), std::invalid_argument);
    }
    auto args = Args({"-lg:auto_trace:batchsize", "5000"});
    EXPECT_EQ(ParseApopheniaFlags(args).batchsize, 5000u);
}

}  // namespace
}  // namespace apo::core
