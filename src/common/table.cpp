#include "common/table.hpp"

#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/check.hpp"

namespace pddl {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  PDDL_CHECK(!header_.empty(), "table needs at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add(const std::string& cell) {
  PDDL_CHECK(!rows_.empty(), "call row() before add()");
  PDDL_CHECK(rows_.back().size() < header_.size(), "row has too many cells");
  rows_.back().push_back(cell);
  return *this;
}

Table& Table::append_column(const std::string& header,
                            const std::string& value) {
  const std::size_t old_width = header_.size();
  header_.push_back(header);
  for (auto& row : rows_) {
    while (row.size() < old_width) row.push_back("");
    row.push_back(value);
  }
  return *this;
}

Table& Table::add(const char* cell) { return add(std::string(cell)); }
Table& Table::add(double value, int precision) {
  return add(format_double(value, precision));
}
Table& Table::add(std::size_t value) { return add(std::to_string(value)); }
Table& Table::add(long value) { return add(std::to_string(value)); }
Table& Table::add(int value) { return add(std::to_string(value)); }

std::string Table::to_text(const std::string& title) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  std::ostringstream os;
  std::size_t total = header_.size() * 3 + 1;
  for (auto w : width) total += w;
  const std::string bar(total, '-');
  if (!title.empty()) os << title << '\n';
  os << bar << '\n';
  auto emit = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      os << ' ' << cell << std::string(width[c] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };
  emit(header_);
  os << bar << '\n';
  for (const auto& r : rows_) emit(r);
  os << bar << '\n';
  return os.str();
}

namespace {
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void Table::write_csv(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  io::write_file_atomic(path, to_csv());
}

}  // namespace pddl
