#include "common/line_reader.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace litmus
{

namespace
{

constexpr std::string_view kBlank = " \t\r";

} // namespace

LineReader::LineReader(std::unique_ptr<std::istream> owned,
                       std::string label)
    : owned_(std::move(owned)), in_(owned_.get()),
      source_(std::move(label))
{
}

LineReader::LineReader(const std::string &path)
    : LineReader(std::make_unique<std::ifstream>(path), path)
{
    if (!*in_)
        fatal("cannot read '", path, "'");
}

LineReader::LineReader(std::istream &in, std::string label)
    : in_(&in), source_(std::move(label))
{
}

LineReader
LineReader::fromText(std::string text, std::string label)
{
    return LineReader(std::make_unique<std::istringstream>(std::move(text)),
                      std::move(label));
}

LineReader::~LineReader() = default;

bool
LineReader::next()
{
    while (std::getline(*in_, buffer_)) {
        ++lineNo_;
        const std::string_view text = buffer_;
        line_ = trimField(text.substr(0, text.find('#')));
        if (!line_.empty())
            return true;
    }
    line_ = {};
    return false;
}

std::string_view
trimField(std::string_view text)
{
    const auto first = text.find_first_not_of(kBlank);
    if (first == std::string_view::npos)
        return {};
    return text.substr(first, text.find_last_not_of(kBlank) - first + 1);
}

void
splitFields(std::string_view line, char delim,
            std::vector<std::string_view> &out)
{
    out.clear();
    while (true) {
        const auto cut = line.find(delim);
        out.push_back(trimField(line.substr(0, cut)));
        if (cut == std::string_view::npos)
            return;
        line.remove_prefix(cut + 1);
    }
}

void
splitWords(std::string_view line, std::vector<std::string_view> &out)
{
    out.clear();
    while (true) {
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string_view::npos)
            return;
        line.remove_prefix(first);
        const auto end = line.find_first_of(" \t");
        out.push_back(line.substr(0, end));
        if (end == std::string_view::npos)
            return;
        line.remove_prefix(end);
    }
}

std::vector<std::string>
splitNonEmpty(std::string_view text, char delim)
{
    std::vector<std::string> out;
    while (!text.empty()) {
        const auto cut = std::min(text.find(delim), text.size());
        if (cut > 0)
            out.emplace_back(text.substr(0, cut));
        text.remove_prefix(std::min(cut + 1, text.size()));
    }
    return out;
}

} // namespace litmus
