#include "common/text_table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.h"

namespace litmus
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        fatal("TextTable requires at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        fatal("TextTable row has ", cells.size(), " cells, expected ",
              headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TextTable::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::left << std::setw(static_cast<int>(widths[c]) + 2)
               << row[c];
        }
        os << '\n';
    };
    emit(headers_);
    std::string rule;
    for (std::size_t c = 0; c < headers_.size(); ++c)
        rule += std::string(widths[c], '-') + "  ";
    os << rule << '\n';
    for (const auto &row : rows_)
        emit(row);
}

void
printBanner(std::ostream &os, const std::string &title)
{
    os << '\n' << std::string(72, '=') << '\n'
       << title << '\n'
       << std::string(72, '=') << '\n';
}

} // namespace litmus
