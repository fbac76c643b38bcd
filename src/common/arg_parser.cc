#include "common/arg_parser.h"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/line_reader.h"
#include "common/logging.h"

namespace litmus
{

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

ArgParser &
ArgParser::addOption(const std::string &name, const std::string &help,
                     const std::string &default_value)
{
    if (options_.contains(name))
        fatal("ArgParser: duplicate option --", name);
    options_[name] = Option{help, default_value, false, false};
    optionOrder_.push_back(name);
    return *this;
}

ArgParser &
ArgParser::addSwitch(const std::string &name, const std::string &help)
{
    if (options_.contains(name))
        fatal("ArgParser: duplicate switch --", name);
    options_[name] = Option{help, "", true, false};
    optionOrder_.push_back(name);
    return *this;
}

ArgParser &
ArgParser::addPositional(const std::string &name,
                         const std::string &help)
{
    positionals_.emplace_back(name, help);
    return *this;
}

bool
ArgParser::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            error_ = "";
            return false;
        }
        if (arg.rfind("--", 0) == 0) {
            std::string name = arg.substr(2);
            std::string value;
            bool hasValue = false;
            const auto eq = name.find('=');
            if (eq != std::string::npos) {
                value = name.substr(eq + 1);
                name = name.substr(0, eq);
                hasValue = true;
            }
            const auto it = options_.find(name);
            if (it == options_.end()) {
                error_ = "unknown flag --" + name;
                return false;
            }
            Option &opt = it->second;
            opt.present = true;
            if (opt.isSwitch) {
                if (hasValue) {
                    error_ = "switch --" + name + " takes no value";
                    return false;
                }
                continue;
            }
            if (!hasValue) {
                if (i + 1 >= argc) {
                    error_ = "flag --" + name + " needs a value";
                    return false;
                }
                value = argv[++i];
            }
            opt.value = value;
        } else {
            if (positionalValues_.size() >= positionals_.size()) {
                error_ = "unexpected argument '" + arg + "'";
                return false;
            }
            positionalValues_.push_back(arg);
        }
    }
    return true;
}

void
ArgParser::parseOrExit(int argc, const char *const *argv)
{
    if (parse(argc, argv))
        return;
    if (!error_.empty())
        std::cerr << "error: " << error_ << "\n\n";
    std::cerr << usage();
    std::exit(error_.empty() ? 0 : 2);
}

std::string
ArgParser::get(const std::string &name) const
{
    const auto it = options_.find(name);
    if (it == options_.end())
        fatal("ArgParser::get: undeclared option --", name);
    return it->second.value;
}

long
ArgParser::getInt(const std::string &name) const
{
    return SourceLine{}.number<long>(get(name), "--" + name);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return SourceLine{}.number<double>(get(name), "--" + name);
}

long
ArgParser::getIntAtLeast(const std::string &name, long floor) const
{
    return SourceLine{}.number<long>(get(name), "--" + name, floor);
}

bool
ArgParser::has(const std::string &name) const
{
    const auto it = options_.find(name);
    if (it == options_.end())
        fatal("ArgParser::has: undeclared flag --", name);
    return it->second.present;
}

std::string
ArgParser::positional(const std::string &name) const
{
    for (std::size_t i = 0; i < positionals_.size(); ++i) {
        if (positionals_[i].first == name) {
            if (i < positionalValues_.size())
                return positionalValues_[i];
            fatal("missing required argument <", name, ">");
        }
    }
    fatal("ArgParser::positional: undeclared argument ", name);
}

std::string
ArgParser::usage() const
{
    std::ostringstream os;
    os << program_ << " — " << summary_ << "\n\nusage: " << program_;
    for (const auto &[name, help] : positionals_)
        os << " <" << name << ">";
    os << " [flags]\n";
    if (!positionals_.empty()) {
        os << "\narguments:\n";
        for (const auto &[name, help] : positionals_)
            os << "  <" << name << ">  " << help << "\n";
    }
    os << "\nflags:\n";
    for (const std::string &name : optionOrder_) {
        const Option &opt = options_.at(name);
        os << "  --" << name;
        if (!opt.isSwitch) {
            os << " <value>";
            if (!opt.value.empty())
                os << " (default " << opt.value << ")";
        }
        os << "  " << opt.help << "\n";
    }
    os << "  --help  show this text\n";
    return os.str();
}

} // namespace litmus
