// CSV import/export for tables (results database surrogate).
//
// The paper's pipeline "writes the results to the database"; in this repo
// the sink is a CSV/TSV file. Quoting follows RFC 4180 (quotes doubled,
// fields containing separator/quote/newline quoted).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "dataflow/table.hpp"

namespace ivt::dataflow {

struct CsvOptions {
  char separator = ',';
  bool header = true;
};

/// Append one cell to `buf`, quoted (RFC 4180) when it contains the
/// separator, a quote or a line break. The cell encoder of write_csv,
/// shared with sinks that render rows without a dense Table.
void append_csv_cell(std::string& buf, std::string_view s, char sep);

/// Write `table` to `out` in logical row order.
void write_csv(const Table& table, std::ostream& out,
               const CsvOptions& options = {});

/// Convenience: write to a file path. Throws std::runtime_error on I/O
/// failure.
void write_csv_file(const Table& table, const std::string& path,
                    const CsvOptions& options = {});

/// Read a CSV with the given schema (header row validated when
/// options.header). Cells parse according to the schema field type; empty
/// cells become null. Throws std::runtime_error on malformed input.
Table read_csv(std::istream& in, const Schema& schema,
               const CsvOptions& options = {},
               std::size_t target_partition_rows = 0);

Table read_csv_file(const std::string& path, const Schema& schema,
                    const CsvOptions& options = {},
                    std::size_t target_partition_rows = 0);

}  // namespace ivt::dataflow
