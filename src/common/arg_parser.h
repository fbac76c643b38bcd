/**
 * @file
 * Minimal command-line argument parser for the CLI tools.
 *
 * Supports long flags with values (--co-runners 160 / --co-runners=160),
 * boolean switches (--turbo), positional arguments (the subcommand),
 * and generated usage text. Unknown flags are an error, matching how a
 * provider-facing tool should fail fast.
 */

#ifndef LITMUS_COMMON_ARG_PARSER_H
#define LITMUS_COMMON_ARG_PARSER_H

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace litmus
{

/** Declarative command-line parser. */
class ArgParser
{
  public:
    /**
     * @param program tool name for usage text
     * @param summary one-line description
     */
    ArgParser(std::string program, std::string summary);

    /** Declare a flag taking a value, with a default shown in help. */
    ArgParser &addOption(const std::string &name,
                         const std::string &help,
                         const std::string &default_value = "");

    /** Declare a boolean switch (present = true). */
    ArgParser &addSwitch(const std::string &name,
                         const std::string &help);

    /** Declare a named positional argument (in order). */
    ArgParser &addPositional(const std::string &name,
                             const std::string &help);

    /**
     * Parse argv. Returns false (after printing usage) on --help or a
     * parse error; the error also sets errorText().
     */
    bool parse(int argc, const char *const *argv);

    /**
     * Standard CLI prologue: parse argv, and on --help or a parse
     * error print the message + usage to stderr and exit (0 for
     * --help, 2 for an error). Returns normally only on success, so
     * main() reduces to `args.parseOrExit(argc, argv);`.
     */
    void parseOrExit(int argc, const char *const *argv);

    /** Value of an option (declared default if not given). */
    std::string get(const std::string &name) const;

    /** Typed accessors with validation (fatal() on malformed input). */
    long getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;

    /** Integer floored at @p floor — fatal() below it, so a typo'd
     *  negative can't hide inside an unsigned cast. */
    long getIntAtLeast(const std::string &name, long floor) const;

    /** True when the switch or option was given on the command line. */
    bool has(const std::string &name) const;

    /** Positional argument by declared name; fatal() if absent. */
    std::string positional(const std::string &name) const;

    /** Number of positionals actually provided. */
    std::size_t positionalCount() const { return positionalValues_.size(); }

    /** Usage text. */
    std::string usage() const;

    /** Parse-error description ("" when parse succeeded). */
    const std::string &errorText() const { return error_; }

  private:
    struct Option
    {
        std::string help;
        std::string value;
        bool isSwitch = false;
        bool present = false;
    };

    std::string program_;
    std::string summary_;
    std::map<std::string, Option> options_;
    std::vector<std::string> optionOrder_;
    std::vector<std::pair<std::string, std::string>> positionals_;
    std::vector<std::string> positionalValues_;
    std::string error_;
};

} // namespace litmus

#endif // LITMUS_COMMON_ARG_PARSER_H
