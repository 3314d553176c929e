#include "stats/table.hh"

#include <cstdarg>
#include <cstdio>

namespace rampage
{

void
TextTable::setHeader(std::vector<std::string> cells)
{
    header = std::move(cells);
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    rows.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    // Compute per-column widths over header + all rows.
    std::vector<std::size_t> widths;
    auto grow = [&](const std::vector<std::string> &cells) {
        if (cells.size() > widths.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].size() > widths[i])
                widths[i] = cells[i].size();
    };
    grow(header);
    for (const auto &row : rows)
        grow(row);

    std::string out;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            out += cells[i];
            if (i + 1 < cells.size())
                out.append(widths[i] - cells[i].size() + 2, ' ');
        }
        out += '\n';
    };
    if (!header.empty()) {
        emit(header);
        std::size_t total = 0;
        for (std::size_t i = 0; i < widths.size(); ++i)
            total += widths[i] + (i + 1 < widths.size() ? 2 : 0);
        out.append(total, '-');
        out += '\n';
    }
    for (const auto &row : rows)
        emit(row);
    return out;
}

std::string
cellf(const char *fmt, ...)
{
    char buf[128];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

} // namespace rampage
