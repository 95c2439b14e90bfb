/**
 * @file
 * Synthetic single-thread µop streams for the Logic+Logic study.
 *
 * The paper drives its Pentium 4 product simulator with over 650
 * single-thread traces spanning SPECINT, SPECFP, hand-written
 * kernels, multimedia, internet, productivity, server, and
 * workstation applications. We reproduce that population with a
 * parameterized µop-stream generator: each application class fixes a
 * characteristic instruction mix, dependency-distance distribution,
 * branch behaviour, and cache-miss profile, and each "trace" is a
 * seeded random variant of its class.
 */

#ifndef STACK3D_WORKLOADS_CPU_WORKLOAD_HH
#define STACK3D_WORKLOADS_CPU_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"

namespace stack3d {
namespace workloads {

/** Micro-operation classes executed by the cpu model. */
enum class UopClass : std::uint8_t
{
    IntAlu,
    FpOp,      ///< floating-point arithmetic (add/mul pipeline)
    SimdOp,    ///< packed SIMD arithmetic
    Load,
    FpLoad,    ///< load feeding the FP unit (longer planar path)
    Store,
    Branch,
};

/** Which level of the cache hierarchy a memory µop hits. */
enum class MemLevel : std::uint8_t
{
    L1,
    L2,
    Memory,
};

/** One micro-operation of a synthetic trace. */
struct CpuUop
{
    UopClass cls = UopClass::IntAlu;

    /**
     * Distances (in µops, backwards) to the producers of the two
     * source operands; 0 means no register dependency on that slot.
     */
    std::uint16_t src_dist[2] = {0, 0};

    /** For Load/FpLoad: hierarchy level that services it. */
    MemLevel mem_level = MemLevel::L1;

    /** For Branch: predicted wrongly (triggers a pipeline redirect). */
    bool mispredict = false;
};

/** Parameters characterizing an application class. */
struct CpuWorkloadParams
{
    std::string name;

    // Instruction mix (fractions sum to <= 1; remainder is IntAlu).
    double frac_load = 0.22;
    double frac_fp_load = 0.0;
    double frac_store = 0.12;
    double frac_fp = 0.0;
    double frac_simd = 0.0;
    double frac_branch = 0.16;

    /** Misprediction probability per branch. */
    double mispredict_rate = 0.05;

    /** Mean register dependency distance (geometric-ish). */
    double mean_dep_dist = 6.0;

    /** Probability a µop carries a first source dependency at all. */
    double dep_prob = 0.75;

    /** Mean length of store bursts (spill/copy sequences); stores
     *  arrive in runs, which is what pressures the store queue. */
    double store_burst = 6.0;

    /** Probability a value chains directly into the next FP op
     *  (long FP dependency chains make FP latency visible). */
    double fp_chain = 0.0;

    /** Cache profile for loads. */
    double l1_miss_rate = 0.06;
    double l2_miss_rate = 0.20;   ///< of L1 misses
};

/** A named application class with baseline parameters. */
struct CpuAppClass
{
    std::string name;
    CpuWorkloadParams params;
    /** Number of trace variants in the suite for this class. */
    unsigned variants;
    /**
     * Per-class salt mixed into every variant and trace seed. The
     * values are fixed constants (what libstdc++'s 64-bit
     * std::hash<std::string> gives for the class name), so every
     * standard library generates the same suite.
     */
    std::uint64_t seed_salt;
};

/**
 * The benchmark suite: application classes matching the populations
 * named in Section 2.2. Variant counts total ~650 traces at
 * full_suite scale; the default suite uses proportional smaller
 * counts for tractable run times.
 */
std::vector<CpuAppClass> cpuAppClasses(bool full_suite = false);

/**
 * Generate one synthetic µop trace.
 * @param params  class parameters (jittered per variant by caller or
 *                via makeVariantParams)
 * @param num_uops trace length
 * @param seed    deterministic seed
 */
std::vector<CpuUop> generateCpuTrace(const CpuWorkloadParams &params,
                                     std::uint64_t num_uops,
                                     std::uint64_t seed);

/**
 * Produce variant @p idx of an application class: the class
 * parameters with deterministic per-variant jitter (+-20%) applied,
 * modelling the spread of real traces within a category.
 */
CpuWorkloadParams makeVariantParams(const CpuAppClass &cls, unsigned idx);

} // namespace workloads
} // namespace stack3d

#endif // STACK3D_WORKLOADS_CPU_WORKLOAD_HH
