#include "common/logging.h"

#include <cstdlib>
#include <iostream>

namespace litmus
{

namespace detail
{

void
emitFatal(const std::string &msg)
{
    std::cerr << "fatal: " << msg << std::endl;
    std::exit(1);
}

void
emitPanic(const std::string &msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
emitWarn(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
emitInform(const std::string &msg)
{
    std::cerr << "info: " << msg << std::endl;
}

} // namespace detail

} // namespace litmus
