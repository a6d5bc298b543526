#include "core/logging.h"

#include <cstdio>
#include <cstdlib>

namespace cta::core {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s:%d: %s\n", file, line, msg.c_str());
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s:%d: %s\n", file, line, msg.c_str());
    // _Exit, not exit: exit would run the static destructors, among
    // them the global ThreadPool's, which joins its workers. From a
    // pool task that joins the calling thread itself (an abort with
    // "Resource deadlock avoided"); in a forked child (a death test)
    // the workers do not exist. No atexit handler or static
    // destructor here writes output, so flushing stdio is all exit
    // would have done that matters.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "warn: %s:%d: %s\n", file, line, msg.c_str());
}

} // namespace cta::core
