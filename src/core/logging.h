/**
 * @file
 * Minimal gem5-style logging and error handling.
 *
 * panic()  — an internal invariant was violated (a library bug);
 *            aborts so a debugger or core dump can capture state.
 * fatal()  — the caller supplied an invalid configuration; flushes
 *            stdio and exits with status 1 from any thread, without
 *            running static destructors.
 * warn()   — something suspicious but survivable happened.
 */

#pragma once

#include <sstream>
#include <string>

namespace cta::core {

/** Aborts the process after printing @p msg with source location. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Exits the process with status 1 after printing @p msg (std::_Exit
 *  after flushing stdio: safe from a pool task or a forked child). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Prints a warning to stderr. */
void warnImpl(const char *file, int line, const std::string &msg);

namespace detail {

/** Stream-concatenates all arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    ((oss << args), ...);
    return oss.str();
}

} // namespace detail

} // namespace cta::core

#define CTA_PANIC(...) \
    ::cta::core::panicImpl(__FILE__, __LINE__, \
                           ::cta::core::detail::concat(__VA_ARGS__))

#define CTA_FATAL(...) \
    ::cta::core::fatalImpl(__FILE__, __LINE__, \
                           ::cta::core::detail::concat(__VA_ARGS__))

#define CTA_WARN(...) \
    ::cta::core::warnImpl(__FILE__, __LINE__, \
                          ::cta::core::detail::concat(__VA_ARGS__))

/** Checks an internal invariant; violations are library bugs. */
#define CTA_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            CTA_PANIC("assertion failed: ", #cond, " ", \
                      ::cta::core::detail::concat(__VA_ARGS__)); \
        } \
    } while (false)

/** Validates a user-supplied argument or configuration. */
#define CTA_REQUIRE(cond, ...) \
    do { \
        if (!(cond)) { \
            CTA_FATAL("requirement failed: ", #cond, " ", \
                      ::cta::core::detail::concat(__VA_ARGS__)); \
        } \
    } while (false)
