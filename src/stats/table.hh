/**
 * @file
 * Plain-text table rendering for the benchmark harnesses.  Every bench
 * binary reproduces one of the paper's tables or figures; this class
 * renders aligned columns so the output can be compared against the
 * paper row by row.
 */

#ifndef RAMPAGE_STATS_TABLE_HH
#define RAMPAGE_STATS_TABLE_HH

#include <string>
#include <vector>

namespace rampage
{

/**
 * An aligned text table.  Build it a row at a time; render() pads
 * every column to its widest cell.
 */
class TextTable
{
  public:
    /** Set the header row (optional). */
    void setHeader(std::vector<std::string> cells);

    /** Append a data row. */
    void addRow(std::vector<std::string> cells);

    /** Number of data rows so far. */
    std::size_t rowCount() const { return rows.size(); }

    /** Render with aligned columns separated by two spaces. */
    std::string render() const;

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/** printf-style helper producing a std::string cell. */
std::string cellf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace rampage

#endif // RAMPAGE_STATS_TABLE_HH
