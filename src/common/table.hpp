// ASCII table renderer used by benchmark binaries to print paper-style rows.
#pragma once

#include <string>
#include <vector>

namespace tidacc {

/// Accumulates rows of strings and renders them as an aligned ASCII table.
///
///   Table t({"variant", "time (ms)", "speedup"});
///   t.add_row({"CUDA pinned", "530.1", "1.14"});
///   std::cout << t.render();
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Adds one row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> cells);

  /// Inserts a horizontal separator line before the next row.
  void add_separator();

  /// Renders the whole table, headers and separators included.
  std::string render() const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator_before = false;
  };

  std::vector<std::string> header_;
  std::vector<Row> rows_;
  bool pending_separator_ = false;
};

/// Formats a double with the given precision (helper for table cells).
std::string fmt(double value, int precision = 3);

}  // namespace tidacc
