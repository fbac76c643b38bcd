/**
 * @file
 * Text rendering for experiment output: aligned console tables and CSV.
 *
 * Every bench binary reports its figure/table as rows of named columns;
 * TextTable renders them aligned for the console and can also emit CSV
 * so results can be re-plotted.
 */

#ifndef LITMUS_COMMON_TEXT_TABLE_H
#define LITMUS_COMMON_TEXT_TABLE_H

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace litmus
{

/** Aligned console table with a header row. */
class TextTable
{
  public:
    /** Create with fixed column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Add a preformatted row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Format a double with the given precision. */
    static std::string num(double v, int precision = 3);

    /** Render with space-aligned columns. */
    void print(std::ostream &os) const;

    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Print a section banner for bench output. */
void printBanner(std::ostream &os, const std::string &title);

} // namespace litmus

#endif // LITMUS_COMMON_TEXT_TABLE_H
