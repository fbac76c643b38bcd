// Fixture: the strict parser's home may call std::from_chars.
#include <charconv>
#include <string>

int fixtureFromChars(const std::string &text)
{
    int value = 0;
    std::from_chars(text.data(), text.data() + text.size(), value);
    return value;
}
