/**
 * @file
 * Owned copies of operation-log rows, for tests that compare two
 * runtimes' logs row for row: retained logs after the run, streaming
 * ones from inside their retire consumers (whose views die with the
 * call).
 */
#ifndef APOPHENIA_TESTS_LOG_ROWS_H
#define APOPHENIA_TESTS_LOG_ROWS_H

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/oplog.h"

namespace apo::test {

/** Everything a row records that the runtime decides. */
struct LogRow {
    rt::TokenHash token = 0;
    rt::AnalysisMode mode = rt::AnalysisMode::kAnalyzed;
    rt::TraceId trace = rt::kNoTrace;
    double cost = 0.0;
    bool replay_head = false;
    std::vector<rt::Dependence> edges;
    std::vector<rt::RegionRequirement> requirements;
};

inline LogRow RowOf(const rt::OpView& op)
{
    const std::span<const rt::RegionRequirement> reqs =
        op.launch.Requirements();
    return LogRow{op.token,
                  op.mode,
                  op.trace,
                  op.analysis_cost_us,
                  op.replay_head,
                  {op.dependences.begin(), op.dependences.end()},
                  {reqs.begin(), reqs.end()}};
}

/** The resident rows of a log (a retained log's whole history). */
inline std::vector<LogRow> RowsOf(const rt::OperationLog& log)
{
    std::vector<LogRow> rows;
    for (const rt::OpView& op : log) {
        rows.push_back(RowOf(op));
    }
    return rows;
}

/** Succeeds iff both row sequences are equal; else names the first
 * row and field that differ. */
inline ::testing::AssertionResult SameRows(const std::vector<LogRow>& a,
                                           const std::vector<LogRow>& b)
{
    if (a.size() != b.size()) {
        return ::testing::AssertionFailure()
               << "row counts differ: " << a.size() << " vs " << b.size();
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        const char* field = a[i].token != b[i].token       ? "token"
                            : a[i].mode != b[i].mode       ? "mode"
                            : a[i].trace != b[i].trace     ? "trace"
                            : a[i].cost != b[i].cost       ? "cost"
                            : a[i].replay_head != b[i].replay_head
                                ? "replay_head"
                            : a[i].edges != b[i].edges     ? "edges"
                            : a[i].requirements != b[i].requirements
                                ? "requirements"
                                : nullptr;
        if (field != nullptr) {
            return ::testing::AssertionFailure()
                   << "row " << i << " differs in " << field;
        }
    }
    return ::testing::AssertionSuccess();
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_LOG_ROWS_H
