/**
 * @file
 * Shared helpers for the test suites.
 */
#ifndef APOPHENIA_TESTS_TEST_UTIL_H
#define APOPHENIA_TESTS_TEST_UTIL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "strings/suffix_array.h"
#include "support/rng.h"

namespace apo::test {

/** Lift an ASCII string into a token sequence (each char one symbol). */
inline strings::Sequence Seq(std::string_view text)
{
    strings::Sequence s;
    s.reserve(text.size());
    for (char c : text) {
        s.push_back(static_cast<std::uint64_t>(c));
    }
    return s;
}

/** Render a token sequence of small symbols back to a string. */
inline std::string Str(const strings::Sequence& s)
{
    std::string out;
    out.reserve(s.size());
    for (auto v : s) {
        out.push_back(static_cast<char>(v));
    }
    return out;
}

/** Random sequence over an alphabet of `sigma` symbols. */
inline strings::Sequence RandomSeq(support::Rng& rng, std::size_t n,
                                   std::uint64_t sigma)
{
    strings::Sequence s(n);
    for (auto& v : s) {
        v = rng.UniformInt(0, sigma - 1);
    }
    return s;
}

/** A periodic sequence with `period` distinct symbols repeated to
 * length n, with optional noise symbols injected every `noise_every`
 * positions (0 disables noise). Models an iterative task stream with
 * interleaved convergence checks. */
inline strings::Sequence PeriodicSeq(std::size_t n, std::uint64_t period,
                                     std::size_t noise_every = 0)
{
    strings::Sequence s;
    s.reserve(n);
    std::uint64_t noise_symbol = 1'000'000;
    for (std::size_t i = 0; s.size() < n; ++i) {
        if (noise_every != 0 && i % noise_every == noise_every - 1) {
            s.push_back(noise_symbol++);
        }
        s.push_back(i % period);
    }
    s.resize(n);
    return s;
}

/** Fibonacci word of length n: the classic worst case for repetition
 * structure. */
inline strings::Sequence FibonacciWord(std::size_t n)
{
    strings::Sequence a{0}, b{1};
    while (a.size() < n) {
        strings::Sequence next = a;
        next.insert(next.end(), b.begin(), b.end());
        b = a;
        a = std::move(next);
    }
    a.resize(n);
    return a;
}

/** Thue-Morse word: overlap-free (contains no factor xxx). */
inline strings::Sequence ThueMorse(std::size_t n)
{
    strings::Sequence s(n);
    for (std::size_t i = 0; i < n; ++i) {
        s[i] = static_cast<strings::Symbol>(__builtin_popcountll(i) & 1);
    }
    return s;
}

}  // namespace apo::test

#endif  // APOPHENIA_TESTS_TEST_UTIL_H
