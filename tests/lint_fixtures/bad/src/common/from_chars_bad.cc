// Fixture: std::from_chars outside common/line_reader.* must fire.
#include <charconv>
#include <string>

int fixtureFromChars(const std::string &text)
{
    int value = 0;
    std::from_chars(text.data(), text.data() + text.size(), value);
    return value;
}
