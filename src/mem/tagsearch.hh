/**
 * @file
 * Tag search for set-associative tag arrays.
 *
 * The classic per-set lookup is a linear scan over `assoc` tags — at
 * 8–16 ways and millions of probes per study cell it is the hottest
 * loop in replay. This header provides the scalar scan (the oracle)
 * and an SSE2 signature probe:
 *
 *  - each way keeps a 16-bit *signature* (XOR-fold of the full tag)
 *    in a contiguous per-set array;
 *  - a probe compares 8 signatures per step with SSE2 cmpeq +
 *    movemask;
 *  - signature matches are *candidates* only — two tags can fold to
 *    the same signature — so every candidate is confirmed against the
 *    full 64-bit tag and the valid mask. False positives cost one
 *    extra compare; false negatives are impossible (equal tags have
 *    equal signatures).
 *
 * findWay() is the one dispatcher. The default mode is the SSE2 probe
 * wherever __SSE2__ is defined (every x86-64 target) and the scalar
 * scan elsewhere; setTagSearchMode() overrides it for tests and
 * benches. Both return the same way index, which the equivalence test
 * in tests/test_mem_replay_determinism.cc pins across associativities
 * 1–16 with partial/invalid sets.
 */

#ifndef STACK3D_MEM_TAGSEARCH_HH
#define STACK3D_MEM_TAGSEARCH_HH

#include <atomic>
#include <bit>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace stack3d {
namespace mem {

/** 16-bit tag signature: XOR-fold of the 64-bit tag. */
using TagSig = std::uint16_t;

inline TagSig
sigOf(std::uint64_t tag)
{
    tag ^= tag >> 32;
    tag ^= tag >> 16;
    return TagSig(tag & 0xFFFF);
}

/** Signatures are stored padded to a multiple of 8 lanes so the SSE2
 *  probe can always load full groups. Padding lanes belong to no way
 *  and are rejected by the `way < assoc` candidate check. */
inline unsigned
sigStride(unsigned assoc)
{
    return (assoc + 7u) & ~7u;
}

/** Which probe implementation to use. */
enum class TagSearchMode
{
    Scalar,
    Simd,
};

namespace detail {
/** Programmatic override slot: -1 = unset (use the build default).
 *  Tag arrays capture the mode at construction, so flipping this
 *  affects hierarchies built afterwards — which is exactly what the
 *  in-process before/after benchmark legs and the equivalence tests
 *  need. */
inline std::atomic<int> g_tag_search_override{-1};
} // namespace detail

/** Override the probe mode for hierarchies built from now on. */
inline void
setTagSearchMode(TagSearchMode mode)
{
    detail::g_tag_search_override.store(int(mode),
                                        std::memory_order_relaxed);
}

/** Drop a setTagSearchMode() override, back to the build default. */
inline void
clearTagSearchMode()
{
    detail::g_tag_search_override.store(-1, std::memory_order_relaxed);
}

/**
 * Resolve the probe mode: a setTagSearchMode() override wins; else
 * Simd when compiled with SSE2, Scalar otherwise.
 */
inline TagSearchMode
tagSearchMode()
{
    int over = detail::g_tag_search_override.load(
        std::memory_order_relaxed);
    if (over >= 0)
        return TagSearchMode(over);
#if defined(__SSE2__)
    return TagSearchMode::Simd;
#else
    return TagSearchMode::Scalar;
#endif
}

/**
 * Reference scan: first way with a valid matching full tag, or -1.
 * The SSE2 probe must agree with this one exactly.
 */
inline int
findWayScalar(const std::uint64_t *tags, std::uint32_t valid_mask,
              unsigned assoc, std::uint64_t tag)
{
    for (unsigned w = 0; w < assoc; ++w) {
        if ((valid_mask >> w) & 1u) {
            if (tags[w] == tag)
                return int(w);
        }
    }
    return -1;
}

#if defined(__SSE2__)
/** SSE2 probe: 8 signatures per step via cmpeq + movemask. @p sigs
 *  must have sigStride(assoc) valid-to-read lanes. */
inline int
findWaySimd(const TagSig *sigs, const std::uint64_t *tags,
            std::uint32_t valid_mask, unsigned assoc, std::uint64_t tag)
{
    const __m128i pattern = _mm_set1_epi16(short(sigOf(tag)));
    const unsigned stride = sigStride(assoc);
    for (unsigned base = 0; base < stride; base += 8) {
        __m128i chunk = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(sigs + base));
        unsigned cand = unsigned(
            _mm_movemask_epi8(_mm_cmpeq_epi16(chunk, pattern)));
        while (cand) {
            unsigned lane = unsigned(std::countr_zero(cand)) / 2u;
            cand &= cand - 1;   // clear low bit of the 2-bit lane pair
            cand &= cand - 1;
            unsigned w = base + lane;
            if (w < assoc && ((valid_mask >> w) & 1u) &&
                tags[w] == tag) {
                return int(w);
            }
        }
    }
    return -1;
}
#endif

/**
 * Probe one set in @p mode: the way holding @p tag, or -1. Without
 * SSE2 every mode is the scalar scan.
 */
inline int
findWay(TagSearchMode mode, const TagSig *sigs,
        const std::uint64_t *tags, std::uint32_t valid_mask,
        unsigned assoc, std::uint64_t tag)
{
#if defined(__SSE2__)
    if (mode == TagSearchMode::Simd)
        return findWaySimd(sigs, tags, valid_mask, assoc, tag);
#else
    (void)mode;
    (void)sigs;
#endif
    return findWayScalar(tags, valid_mask, assoc, tag);
}

} // namespace mem
} // namespace stack3d

#endif // STACK3D_MEM_TAGSEARCH_HH
