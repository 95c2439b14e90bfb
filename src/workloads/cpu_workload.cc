#include "cpu_workload.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace stack3d {
namespace workloads {

std::vector<CpuAppClass>
cpuAppClasses(bool full_suite)
{
    // Variant counts sum to 656 at full-suite scale (the paper ran
    // "over 650" traces); the default scale divides by 8.
    auto scale = [&](unsigned n) {
        return full_suite ? n : std::max(1u, n / 8);
    };

    std::vector<CpuAppClass> classes;

    {
        CpuWorkloadParams p;
        p.name = "specint";
        p.frac_load = 0.24; p.frac_store = 0.11; p.frac_branch = 0.19;
        p.mispredict_rate = 0.072; p.mean_dep_dist = 6.5;
        p.l1_miss_rate = 0.04; p.l2_miss_rate = 0.15;
        classes.push_back(
            {p.name, p, scale(96), 0x0cb3aa50ef11aff4ULL});
    }
    {
        CpuWorkloadParams p;
        p.name = "specfp";
        p.frac_load = 0.08; p.frac_fp_load = 0.18; p.frac_store = 0.09;
        p.frac_fp = 0.34; p.frac_branch = 0.06;
        p.mispredict_rate = 0.016; p.mean_dep_dist = 9.0;
        p.fp_chain = 0.78;
        p.l1_miss_rate = 0.07; p.l2_miss_rate = 0.30;
        classes.push_back(
            {p.name, p, scale(96), 0x73f29a8803ef5035ULL});
    }
    {
        CpuWorkloadParams p;
        p.name = "kernels";
        p.frac_load = 0.06; p.frac_fp_load = 0.20; p.frac_store = 0.10;
        p.frac_fp = 0.36; p.frac_branch = 0.04;
        p.mispredict_rate = 0.008; p.mean_dep_dist = 10.0;
        p.fp_chain = 0.85;
        p.l1_miss_rate = 0.05; p.l2_miss_rate = 0.25;
        classes.push_back(
            {p.name, p, scale(64), 0x11432fe59d689af3ULL});
    }
    {
        CpuWorkloadParams p;
        p.name = "multimedia";
        p.frac_load = 0.20; p.frac_store = 0.12; p.frac_simd = 0.28;
        p.frac_branch = 0.08;
        p.mispredict_rate = 0.026; p.mean_dep_dist = 8.0;
        p.l1_miss_rate = 0.05; p.l2_miss_rate = 0.18;
        classes.push_back(
            {p.name, p, scale(88), 0xb6dfc8be77be66d0ULL});
    }
    {
        CpuWorkloadParams p;
        p.name = "internet";
        p.frac_load = 0.26; p.frac_store = 0.13; p.frac_branch = 0.20;
        p.mispredict_rate = 0.085; p.mean_dep_dist = 6.0;
        p.l1_miss_rate = 0.05; p.l2_miss_rate = 0.22;
        classes.push_back(
            {p.name, p, scale(80), 0x7eb898a648e83046ULL});
    }
    {
        CpuWorkloadParams p;
        p.name = "productivity";
        p.frac_load = 0.25; p.frac_store = 0.14; p.frac_branch = 0.18;
        p.mispredict_rate = 0.065; p.mean_dep_dist = 6.0;
        p.l1_miss_rate = 0.045; p.l2_miss_rate = 0.20;
        classes.push_back(
            {p.name, p, scale(88), 0x965847c9e739d9bbULL});
    }
    {
        CpuWorkloadParams p;
        p.name = "server";
        p.frac_load = 0.28; p.frac_store = 0.15; p.frac_branch = 0.17;
        p.mispredict_rate = 0.078; p.mean_dep_dist = 5.5;
        p.l1_miss_rate = 0.09; p.l2_miss_rate = 0.40;
        classes.push_back(
            {p.name, p, scale(80), 0x2042d79a31d5ef4aULL});
    }
    {
        CpuWorkloadParams p;
        p.name = "workstation";
        p.frac_load = 0.18; p.frac_fp_load = 0.08; p.frac_store = 0.11;
        p.frac_fp = 0.18; p.frac_simd = 0.10; p.frac_branch = 0.11;
        p.mispredict_rate = 0.04; p.mean_dep_dist = 7.5;
        p.fp_chain = 0.45;
        p.l1_miss_rate = 0.06; p.l2_miss_rate = 0.25;
        classes.push_back(
            {p.name, p, scale(64), 0x21517500eb04ffeeULL});
    }
    return classes;
}

CpuWorkloadParams
makeVariantParams(const CpuAppClass &cls, unsigned idx)
{
    CpuWorkloadParams p = cls.params;
    Random rng(0xabcdef ^ (std::uint64_t(idx) << 16) ^ cls.seed_salt);
    auto jitter = [&](double v, double rel = 0.2) {
        return v * rng.uniformDouble(1.0 - rel, 1.0 + rel);
    };
    p.frac_load = jitter(p.frac_load);
    p.frac_fp_load = jitter(p.frac_fp_load);
    p.frac_store = jitter(p.frac_store);
    p.frac_fp = jitter(p.frac_fp);
    p.frac_simd = jitter(p.frac_simd);
    p.frac_branch = jitter(p.frac_branch);
    p.mispredict_rate = jitter(p.mispredict_rate, 0.35);
    p.mean_dep_dist = jitter(p.mean_dep_dist);
    p.fp_chain = std::min(0.9, jitter(p.fp_chain));
    p.l1_miss_rate = jitter(p.l1_miss_rate, 0.35);
    p.l2_miss_rate = jitter(p.l2_miss_rate, 0.35);
    p.name = cls.name + "." + std::to_string(idx);
    return p;
}

std::vector<CpuUop>
generateCpuTrace(const CpuWorkloadParams &params_in,
                 std::uint64_t num_uops, std::uint64_t seed)
{
    // Store bursts multiply each selected store by ~store_burst, so
    // the entry probability is divided accordingly to preserve the
    // overall store fraction.
    CpuWorkloadParams params = params_in;
    if (params.store_burst > 1.0)
        params.frac_store /= params.store_burst;
    double total = params.frac_load + params.frac_fp_load +
                   params.frac_store + params.frac_fp +
                   params.frac_simd + params.frac_branch;
    if (total > 1.0)
        stack3d_fatal("instruction mix fractions exceed 1 (", total,
                      ") in workload '", params.name, "'");

    Random rng(seed);
    std::vector<CpuUop> uops;
    uops.reserve(num_uops);

    // Track the distance back to the most recent FP producer so FP
    // chains can link to it explicitly.
    std::uint64_t last_fp_producer = 0;   // index+1, 0 = none
    unsigned store_run = 0;               // remaining burst stores

    for (std::uint64_t i = 0; i < num_uops; ++i) {
        CpuUop uop;
        double draw = rng.uniformDouble();
        double acc = 0.0;

        auto pick = [&](double frac) {
            acc += frac;
            return draw < acc;
        };

        bool burst_store = false;
        if (store_run > 0) {
            // Stores cluster into bursts (register spills, copies).
            --store_run;
            uop.cls = UopClass::Store;
            burst_store = true;   // skip the mix draw below
        }

        if (burst_store) {
            // burst store selected above
        } else if (pick(params.frac_load)) {
            uop.cls = UopClass::Load;
        } else if (pick(params.frac_fp_load)) {
            uop.cls = UopClass::FpLoad;
        } else if (pick(params.frac_store)) {
            uop.cls = UopClass::Store;
            if (params.store_burst > 1.0) {
                store_run = unsigned(
                    rng.uniformDouble() * 2.0 * (params.store_burst - 1.0));
            }
        } else if (pick(params.frac_fp)) {
            uop.cls = UopClass::FpOp;
        } else if (pick(params.frac_simd)) {
            uop.cls = UopClass::SimdOp;
        } else if (pick(params.frac_branch)) {
            uop.cls = UopClass::Branch;
            uop.mispredict = rng.chance(params.mispredict_rate);
        } else {
            uop.cls = UopClass::IntAlu;
        }

        // Register dependencies: geometric distances, clamped to the
        // instructions generated so far.
        auto draw_dist = [&]() -> std::uint16_t {
            double u = rng.uniformDouble();
            double d = 1.0 - std::log(1.0 - u) * params.mean_dep_dist;
            auto dist = std::uint64_t(d);
            dist = std::min<std::uint64_t>(dist, i);
            dist = std::min<std::uint64_t>(dist, 60000);
            return std::uint16_t(dist);
        };

        if (uop.cls == UopClass::FpOp && last_fp_producer &&
            rng.chance(params.fp_chain)) {
            // Chain to the previous FP result.
            std::uint64_t dist = i - (last_fp_producer - 1);
            if (dist <= 60000)
                uop.src_dist[0] = std::uint16_t(dist);
            uop.src_dist[1] = draw_dist();
        } else if ((uop.cls != UopClass::Branch || rng.chance(0.8)) &&
                   rng.chance(params.dep_prob)) {
            uop.src_dist[0] = draw_dist();
            if (rng.chance(0.5))
                uop.src_dist[1] = draw_dist();
        }

        // Memory level for loads.
        if (uop.cls == UopClass::Load || uop.cls == UopClass::FpLoad) {
            if (rng.chance(params.l1_miss_rate)) {
                uop.mem_level = rng.chance(params.l2_miss_rate)
                                    ? MemLevel::Memory
                                    : MemLevel::L2;
            } else {
                uop.mem_level = MemLevel::L1;
            }
        }

        if (uop.cls == UopClass::FpOp || uop.cls == UopClass::FpLoad)
            last_fp_producer = i + 1;

        uops.push_back(uop);
    }
    return uops;
}

} // namespace workloads
} // namespace stack3d
