#include "core/config.h"

#include <stdexcept>

namespace apo::core {

namespace {

std::size_t
ParseCount(const std::string& flag, const std::string& value)
{
    std::size_t pos = 0;
    unsigned long long parsed = 0;
    try {
        parsed = std::stoull(value, &pos);
    } catch (const std::exception&) {
        throw std::invalid_argument(flag + " expects a number, got '" +
                                    value + "'");
    }
    if (pos != value.size()) {
        throw std::invalid_argument(flag + " expects a number, got '" +
                                    value + "'");
    }
    return static_cast<std::size_t>(parsed);
}

}  // namespace

ApopheniaConfig
ParseApopheniaFlags(std::vector<std::string>& args)
{
    ApopheniaConfig config;
    config.enabled = false;  // off unless the flag is present
    std::vector<std::string> rest;
    rest.reserve(args.size());

    auto value_of = [&](std::size_t& i, const std::string& flag) {
        if (i + 1 >= args.size()) {
            throw std::invalid_argument(flag + " expects a value");
        }
        return args[++i];
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a == "-lg:enable_automatic_tracing") {
            config.enabled = true;
        } else if (a == "-lg:auto_trace:min_trace_length") {
            config.min_trace_length = ParseCount(a, value_of(i, a));
        } else if (a == "-lg:auto_trace:max_trace_length") {
            config.max_trace_length = ParseCount(a, value_of(i, a));
        } else if (a == "-lg:auto_trace:batchsize") {
            config.batchsize = ParseCount(a, value_of(i, a));
        } else if (a == "-lg:auto_trace:multi_scale_factor") {
            config.multi_scale_factor = ParseCount(a, value_of(i, a));
        } else if (a == "-lg:auto_trace:identifier_algorithm") {
            const std::string v = value_of(i, a);
            if (v == "multi-scale") {
                config.identifier_algorithm = IdentifierAlgorithm::kMultiScale;
            } else if (v == "batched") {
                config.identifier_algorithm = IdentifierAlgorithm::kBatched;
            } else {
                throw std::invalid_argument(
                    a + ": unknown identifier algorithm '" + v + "'");
            }
        } else if (a == "-lg:auto_trace:ingest_mode") {
            const std::string v = value_of(i, a);
            if (v == "on-completion") {
                config.ingest_mode = IngestMode::kOnCompletion;
            } else if (v == "eager-drain") {
                config.ingest_mode = IngestMode::kEagerDrain;
            } else if (v == "manual") {
                config.ingest_mode = IngestMode::kManual;
            } else {
                throw std::invalid_argument(
                    a + ": unknown ingest mode '" + v + "'");
            }
        } else if (a == "-lg:auto_trace:history_block_size") {
            config.history_block_size = ParseCount(a, value_of(i, a));
        } else if (a == "-lg:window") {
            config.window = ParseCount(a, value_of(i, a));
        } else if (a == "-lg:inline_transitive_reduction") {
            config.inline_transitive_reduction = true;
        } else if (a == "-lg:auto_trace:repeats_algorithm") {
            const std::string v = value_of(i, a);
            if (v == "quick_matching_of_substrings") {
                config.repeats_algorithm =
                    RepeatsAlgorithm::kQuickMatchingOfSubstrings;
            } else if (v == "tandem") {
                config.repeats_algorithm = RepeatsAlgorithm::kTandem;
            } else if (v == "lzw") {
                config.repeats_algorithm = RepeatsAlgorithm::kLzw;
            } else if (v == "quadratic") {
                config.repeats_algorithm = RepeatsAlgorithm::kQuadratic;
            } else {
                throw std::invalid_argument(
                    a + ": unknown repeats algorithm '" + v + "'");
            }
        } else {
            rest.push_back(a);
        }
    }
    args = std::move(rest);

    if (config.min_trace_length == 0) {
        throw std::invalid_argument("min_trace_length must be positive");
    }
    if (config.max_trace_length < config.min_trace_length) {
        throw std::invalid_argument(
            "max_trace_length must be >= min_trace_length");
    }
    if (config.batchsize == 0 || config.multi_scale_factor == 0) {
        throw std::invalid_argument(
            "batchsize and multi_scale_factor must be positive");
    }
    if (config.history_block_size == 0) {
        throw std::invalid_argument("history_block_size must be positive");
    }
    return config;
}

}  // namespace apo::core
