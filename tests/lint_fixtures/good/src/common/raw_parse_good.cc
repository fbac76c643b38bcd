// Fixture: numeric text goes through the strict whole-field parser.
#include <optional>
#include <string_view>

namespace litmus
{
template <typename T> std::optional<T> parseNumber(std::string_view text);
}

double fixtureParse(std::string_view text)
{
    return litmus::parseNumber<double>(text).value_or(0.0);
}
