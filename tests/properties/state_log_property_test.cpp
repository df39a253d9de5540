// Property test of the state change log (core::StateLog) against the
// dense forward-fill oracle (tests/common/state_oracle.hpp): seeded random
// K_rep tables — duplicate timestamps, extension elements, cell and column
// names containing ',', '"' and '\n', empty inputs — under every
// StateRepresentationOptions combination. Every sink of the log must give
// the oracle's bytes: the CSV writer, to_table() rows, the .ivtbl
// container and the serve-style slice + projection. The log must also stay
// within its deterministic memory bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "../common/state_oracle.hpp"
#include "core/schemas.hpp"
#include "core/state_repr.hpp"
#include "dataflow/csv.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/ops.hpp"
#include "dataflow/table_io.hpp"

namespace ivt::core {
namespace {

constexpr int kSeeds = 60;

dataflow::Engine make_engine(std::size_t partitions) {
  dataflow::EngineConfig config;
  config.inline_execution = true;
  config.default_partitions = partitions;
  return dataflow::Engine(config);
}

std::string csv_of(const dataflow::Table& table) {
  std::ostringstream out;
  dataflow::write_csv(table, out);
  return std::move(out).str();
}

std::string ivtbl_of(const dataflow::Table& table) {
  std::ostringstream out;
  dataflow::write_table(table, out);
  return std::move(out).str();
}

/// A random krep_schema table: few timestamps (so many ties), few signal
/// ids, a value pool with CSV-hostile text, every element kind, and the
/// rows spread over several input partitions.
dataflow::Table random_krep(std::mt19937_64& rng, std::size_t rows) {
  static const std::vector<std::string> kIds = {
      "speed", "lever", "w.gap", "comma,id", "quote\"id", "nl\nid", ""};
  static const std::vector<std::string> kValues = {
      "(high,increasing)", "ON", "OFF", "snv", "say \"hi\"", "two\nlines",
      "", "(7835.25,decreasing)", "plain"};
  static const std::vector<std::string> kKinds = {
      kElementState, kElementState, kElementOutlier, kElementValidity,
      kElementExtension};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const std::size_t per_partition = 1 + pick(std::max<std::size_t>(rows, 1));
  dataflow::TableBuilder builder(krep_schema(), per_partition);
  const std::int64_t time_span = 1 + static_cast<std::int64_t>(pick(40));
  for (std::size_t i = 0; i < rows; ++i) {
    dataflow::Partition& dst = builder.current_partition();
    dst.columns[0].append_int64(
        static_cast<std::int64_t>(pick(static_cast<std::size_t>(time_span))) *
        1000);
    dst.columns[1].append_string(kIds[pick(kIds.size())]);
    if (pick(10) == 0) {
      dst.columns[2].append_null();
    } else {
      dst.columns[2].append_string(kValues[pick(kValues.size())]);
    }
    dst.columns[3].append_null();
    dst.columns[4].append_string(kKinds[pick(kKinds.size())]);
    dst.columns[5].append_string("FC");
    builder.commit_row();
  }
  return builder.build();
}

/// Σ (string object + text) over the log's dictionaries and names.
std::size_t dictionary_bytes(const StateLog& log) {
  std::size_t bytes = 0;
  for (const std::string& name : log.names()) {
    bytes += sizeof(std::string) + name.size();
  }
  for (const StateLog::Column& column : log.columns()) {
    for (const std::string& cell : column.dictionary) {
      bytes += sizeof(std::string) + cell.size();
    }
  }
  return bytes;
}

/// Compare every sink of the log built from `krep` with the oracle.
void expect_log_matches_oracle(const dataflow::Table& krep,
                               const StateRepresentationOptions& options,
                               std::size_t partitions, std::mt19937_64& rng) {
  dataflow::Engine engine = make_engine(partitions);
  const dataflow::Table oracle =
      testoracle::dense_state_representation(engine, krep, options);
  const StateLog log = build_state_log(engine, krep, options);

  // CSV sink.
  std::ostringstream log_csv;
  log.write_csv(log_csv);
  ASSERT_EQ(log_csv.str(), csv_of(oracle));

  // Dense projection: schema, rows, partitioning, .ivtbl bytes.
  const dataflow::Table dense = log.to_table();
  ASSERT_EQ(dense.schema(), oracle.schema());
  ASSERT_EQ(dense.collect_rows(), oracle.collect_rows());
  ASSERT_EQ(ivtbl_of(dense), ivtbl_of(oracle));
  ASSERT_EQ(ivtbl_of(build_state_representation(engine, krep, options)),
            ivtbl_of(oracle));
  EXPECT_EQ(log.num_rows(), oracle.num_rows());

  // Serve-style slice [lo, hi] plus column projection.
  const std::vector<std::int64_t>& times = log.times();
  for (int trial = 0; trial < 4; ++trial) {
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    if (!times.empty()) {
      lo = times[rng() % times.size()] - static_cast<std::int64_t>(rng() % 2);
      hi = lo + static_cast<std::int64_t>(rng() % 20000);
    }
    // Serve's shape is "t" then signals; to_table() also takes any
    // order without "t".
    std::vector<std::string> columns;
    if (rng() % 4 != 0) columns.emplace_back("t");
    for (const std::string& name : log.names()) {
      if (rng() % 2 == 0) columns.push_back(name);
    }
    if (rng() % 4 == 0) std::shuffle(columns.begin(), columns.end(), rng);
    const std::size_t t_col = oracle.schema().require("t");
    const dataflow::Table expected = dataflow::project(
        engine,
        dataflow::filter(engine, oracle,
                         [t_col, lo, hi](const dataflow::RowView& row) {
                           const std::int64_t t = row.int64_at(t_col);
                           return t >= lo && t <= hi;
                         }),
        columns);
    std::ostringstream sliced;
    log.write_csv(sliced, columns, log.rows_between(lo, hi));
    ASSERT_EQ(sliced.str(), csv_of(expected))
        << "slice [" << lo << ", " << hi << "]";
    ASSERT_EQ(log.to_table(columns).collect_rows(),
              dataflow::project(engine, oracle, columns).collect_rows());
  }

  // Deterministic memory bound: no dense blow-up, whatever the width.
  EXPECT_LE(log.approx_bytes(), 16 * krep.num_rows() + 8 * log.num_rows() +
                                    dictionary_bytes(log) +
                                    64 * log.names().size());
}

class StateLogPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] StateRepresentationOptions options() const {
    StateRepresentationOptions o;
    o.merge_same_timestamp = (GetParam() & 1) != 0;
    o.include_extensions = (GetParam() & 2) != 0;
    o.momentary_extensions = (GetParam() & 4) != 0;
    return o;
  }
};

TEST_P(StateLogPropertyTest, MatchesDenseOracle) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 +
                        static_cast<std::uint64_t>(GetParam()));
    const std::size_t rows = rng() % 250;
    const dataflow::Table krep = random_krep(rng, rows);
    const std::size_t partitions = 1 + rng() % 6;
    expect_log_matches_oracle(krep, options(), partitions, rng);
    if (HasFatalFailure()) return;
  }
}

TEST_P(StateLogPropertyTest, EmptyKrepMatchesDenseOracle) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const dataflow::Table krep(krep_schema());
  expect_log_matches_oracle(krep, options(), 3, rng);
  dataflow::Engine engine = make_engine(3);
  const StateLog log = build_state_log(engine, krep, options());
  EXPECT_EQ(log.num_rows(), 0U);
  EXPECT_TRUE(log.names().empty());
}

INSTANTIATE_TEST_SUITE_P(AllOptionCombinations, StateLogPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace ivt::core
