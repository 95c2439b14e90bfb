/**
 * @file
 * Unit tests for the trace substrate: records, buffers, the
 * dependency-tracking writer, the SMP merger, and file I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "trace/buffer.hh"
#include "trace/file.hh"
#include "trace/record.hh"
#include "trace/writer.hh"
#include "workloads/config.hh"
#include "workloads/registry.hh"

using namespace stack3d;
using namespace stack3d::trace;

// ---------------------------------------------------------------------
// records and buffers
// ---------------------------------------------------------------------

TEST(Record, Defaults)
{
    TraceRecord rec;
    EXPECT_FALSE(rec.hasDep());
    EXPECT_EQ(rec.op, MemOp::Load);
    EXPECT_EQ(rec.size, 8);
}

TEST(Record, OpNames)
{
    EXPECT_STREQ(memOpName(MemOp::Load), "load");
    EXPECT_STREQ(memOpName(MemOp::Store), "store");
    EXPECT_STREQ(memOpName(MemOp::Ifetch), "ifetch");
}

TEST(Buffer, ValidateAcceptsWellFormed)
{
    std::vector<TraceRecord> recs(3);
    recs[1].dep = 0;
    recs[2].dep = 1;
    TraceBuffer buf(std::move(recs));
    EXPECT_TRUE(buf.validate());
}

TEST(Buffer, ValidateRejectsForwardDep)
{
    std::vector<TraceRecord> recs(2);
    recs[0].dep = 1;   // depends on a later record
    TraceBuffer buf(std::move(recs));
    EXPECT_FALSE(buf.validate());
}

TEST(Buffer, ValidateRejectsSelfDep)
{
    std::vector<TraceRecord> recs(1);
    recs[0].dep = 0;
    TraceBuffer buf(std::move(recs));
    EXPECT_FALSE(buf.validate());
}

TEST(Buffer, ValidateRejectsBadSize)
{
    std::vector<TraceRecord> recs(1);
    recs[0].size = 0;
    EXPECT_FALSE(TraceBuffer(std::move(recs)).validate());

    std::vector<TraceRecord> recs2(1);
    recs2[0].size = 65;
    EXPECT_FALSE(TraceBuffer(std::move(recs2)).validate());
}

TEST(Buffer, StatsCountsOpsAndFootprint)
{
    std::vector<TraceRecord> recs;
    TraceRecord r;
    r.addr = 0x1000;
    r.op = MemOp::Load;
    recs.push_back(r);
    r.addr = 0x1008;   // same 64 B line
    r.op = MemOp::Store;
    recs.push_back(r);
    r.addr = 0x2000;   // new line
    r.op = MemOp::Ifetch;
    r.cpu = 1;
    recs.push_back(r);

    TraceStats st = TraceBuffer(std::move(recs)).computeStats();
    EXPECT_EQ(st.num_records, 3u);
    EXPECT_EQ(st.num_loads, 1u);
    EXPECT_EQ(st.num_stores, 1u);
    EXPECT_EQ(st.num_ifetches, 1u);
    EXPECT_EQ(st.footprint_lines, 2u);
    EXPECT_EQ(st.footprint_bytes, 128u);
    EXPECT_EQ(st.records_cpu0, 2u);
    EXPECT_EQ(st.records_cpu1, 1u);
}

TEST(Buffer, StatsDependencyChain)
{
    std::vector<TraceRecord> recs(4);
    recs[1].dep = 0;
    recs[2].dep = 1;
    recs[3].dep = 2;
    TraceStats st = TraceBuffer(std::move(recs)).computeStats();
    EXPECT_EQ(st.num_with_dep, 3u);
    EXPECT_EQ(st.max_dep_chain, 4u);
}

// ---------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------

TEST(Writer, RecordsCarryCpuAndIp)
{
    ThreadTracer tracer(1);
    tracer.load(0x100, 0x400000);
    auto recs = tracer.take();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].cpu, 1);
    EXPECT_EQ(recs[0].ip, 0x400000u);
    EXPECT_EQ(recs[0].addr, 0x100u);
}

TEST(Writer, ExplicitDependencyWins)
{
    ThreadTracer tracer(0);
    RecordId idx = tracer.load(0x100, 0x1);
    tracer.store(0x200, 0x2);   // would set last-writer of 0x200
    RecordId gather = tracer.load(0x200, 0x3, idx);
    auto recs = tracer.take();
    // The gather's dep is the explicit index load, not the store.
    EXPECT_EQ(recs[gather].dep, idx);
}

TEST(Writer, RawThroughMemoryTracked)
{
    ThreadTracer tracer(0);
    RecordId st = tracer.store(0x1000, 0x1);
    RecordId ld = tracer.load(0x1008, 0x2);   // same 64 B line
    auto recs = tracer.take();
    EXPECT_EQ(recs[ld].dep, st);
}

TEST(Writer, NoRawAcrossDifferentLines)
{
    ThreadTracer tracer(0);
    tracer.store(0x1000, 0x1);
    RecordId ld = tracer.load(0x2000, 0x2);
    auto recs = tracer.take();
    EXPECT_FALSE(recs[ld].hasDep());
}

TEST(Writer, RawTrackingCanBeDisabled)
{
    ThreadTracer tracer(0, /*track_raw=*/false);
    tracer.store(0x1000, 0x1);
    RecordId ld = tracer.load(0x1000, 0x2);
    auto recs = tracer.take();
    EXPECT_FALSE(recs[ld].hasDep());
}

TEST(Writer, TakeResetsState)
{
    ThreadTracer tracer(0);
    tracer.store(0x1000, 0x1);
    (void)tracer.take();
    EXPECT_EQ(tracer.size(), 0u);
    // The last-writer map is cleared too: no stale RAW dep.
    RecordId ld = tracer.load(0x1000, 0x2);
    auto recs = tracer.take();
    EXPECT_FALSE(recs[ld].hasDep());
}

TEST(Writer, StorageStaysWithinOneBlockOf32BytesPerRecord)
{
    // Blocks never move or regrow, so however many records a thread
    // writes, its store holds 32 B/record plus at most one partly
    // filled block, plus the block table: one 8 B slot per block, at
    // most doubled by the table's own growth.
    constexpr std::size_t kBlockBytes =
        RecordBlocks::kBlockRecords * sizeof(TraceRecord);
    static_assert(sizeof(TraceRecord) == 32);
    RecordBlocks blocks;
    EXPECT_EQ(blocks.storageBytes(), 0u);
    TraceRecord rec;
    for (std::size_t n = 1; n <= 300000; ++n) {
        rec.addr = n * 8;
        blocks.push(rec);
        const std::size_t num_blocks =
            (n + RecordBlocks::kBlockRecords - 1) /
            RecordBlocks::kBlockRecords;
        ASSERT_LE(blocks.storageBytes(),
                  32 * n + kBlockBytes + 16 * num_blocks)
            << "after " << n << " records";
    }
    EXPECT_EQ(blocks.size(), 300000u);
    EXPECT_EQ(blocks[299999].addr, 300000u * 8);
}

// ---------------------------------------------------------------------
// merger
// ---------------------------------------------------------------------

TEST(Merger, InterleavesInChunks)
{
    ThreadTracer t0(0), t1(1);
    for (int i = 0; i < 4; ++i)
        t0.load(0x1000 + i * 64, 0x1);
    for (int i = 0; i < 4; ++i)
        t1.load(0x2000 + i * 64, 0x2);

    std::vector<RecordBlocks> threads;
    threads.push_back(t0.take());
    threads.push_back(t1.take());
    TraceBuffer merged = TraceMerger(2).merge(std::move(threads));

    ASSERT_EQ(merged.size(), 8u);
    // Chunk pattern: 0 0 1 1 0 0 1 1.
    const std::uint8_t expect[] = {0, 0, 1, 1, 0, 0, 1, 1};
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(merged[i].cpu, expect[i]) << "at " << i;
}

TEST(Merger, RemapsDependencies)
{
    ThreadTracer t0(0), t1(1);
    t0.load(0x1000, 0x1);
    RecordId st1 = t1.store(0x2000, 0x2);
    RecordId ld1 = t1.load(0x2000, 0x3);
    (void)st1;
    (void)ld1;
    t0.load(0x1040, 0x4);

    std::vector<RecordBlocks> threads;
    threads.push_back(t0.take());
    threads.push_back(t1.take());
    TraceBuffer merged = TraceMerger(1).merge(std::move(threads));

    ASSERT_TRUE(merged.validate());
    // Find the thread-1 load; its dep must point at the thread-1
    // store in merged coordinates.
    for (std::size_t i = 0; i < merged.size(); ++i) {
        if (merged[i].cpu == 1 && merged[i].op == MemOp::Load) {
            ASSERT_TRUE(merged[i].hasDep());
            EXPECT_EQ(merged[merged[i].dep].op, MemOp::Store);
            EXPECT_EQ(merged[merged[i].dep].cpu, 1);
        }
    }
}

TEST(Merger, HandlesUnevenThreads)
{
    ThreadTracer t0(0), t1(1);
    for (int i = 0; i < 10; ++i)
        t0.load(0x1000 + i * 64, 0x1);
    t1.load(0x2000, 0x2);

    std::vector<RecordBlocks> threads;
    threads.push_back(t0.take());
    threads.push_back(t1.take());
    TraceBuffer merged = TraceMerger(4).merge(std::move(threads));
    EXPECT_EQ(merged.size(), 11u);
    EXPECT_TRUE(merged.validate());
}

class MergerChunkTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MergerChunkTest, PreservesAllRecordsAndValidity)
{
    ThreadTracer t0(0), t1(1);
    RecordId prev = kNone;
    for (int i = 0; i < 37; ++i)
        prev = t0.load(0x1000 + i * 8, 0x1, prev);
    for (int i = 0; i < 53; ++i) {
        t1.store(0x8000 + i * 8, 0x2);
        t1.load(0x8000 + i * 8, 0x3);
    }
    std::vector<RecordBlocks> threads;
    threads.push_back(t0.take());
    threads.push_back(t1.take());
    TraceBuffer merged = TraceMerger(GetParam()).merge(
        std::move(threads));
    EXPECT_EQ(merged.size(), 37u + 106u);
    EXPECT_TRUE(merged.validate());
}

INSTANTIATE_TEST_SUITE_P(Chunks, MergerChunkTest,
                         ::testing::Values(1, 2, 7, 64, 1000));

// ---------------------------------------------------------------------
// file I/O
// ---------------------------------------------------------------------

namespace {

std::string
tempPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** A one-thread trace: the tracer's records, in order. */
TraceBuffer
singleThread(ThreadTracer &tracer)
{
    std::vector<RecordBlocks> threads;
    threads.push_back(tracer.take());
    return TraceMerger().merge(std::move(threads));
}

} // anonymous namespace

TEST(TraceFile, RoundTrip)
{
    ThreadTracer tracer(0);
    RecordId prev = kNone;
    for (int i = 0; i < 1000; ++i)
        prev = tracer.load(0x1000 + i * 16, 0x400000 + i, prev, 16);
    TraceBuffer original = singleThread(tracer);

    std::string path = tempPath("stack3d_trace_test.bin");
    writeTraceFile(path, original);
    TraceBuffer loaded = readTraceFile(path);

    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i)
        EXPECT_TRUE(loaded[i] == original[i]) << "record " << i;
    std::remove(path.c_str());
}

TEST(TraceFile, MissingFileIsFatal)
{
    EXPECT_THROW(readTraceFile("/nonexistent/path/trace.bin"),
                 std::runtime_error);
}

TEST(TraceFile, BadMagicIsFatal)
{
    std::string path = tempPath("stack3d_bad_magic.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "NOT A TRACE FILE AT ALL........................";
    }
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, TruncatedIsFatal)
{
    ThreadTracer tracer(0);
    for (int i = 0; i < 100; ++i)
        tracer.load(0x1000 + i * 64, 0x1);
    TraceBuffer buf = singleThread(tracer);
    std::string path = tempPath("stack3d_truncated.bin");
    writeTraceFile(path, buf);
    std::filesystem::resize_file(path, 100);
    EXPECT_THROW(readTraceFile(path), std::runtime_error);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// run-to-run reproducibility
// ---------------------------------------------------------------------

namespace {

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // anonymous namespace

/**
 * Two generations of the same workload trace must produce
 * byte-identical trace files: generation, stats, and serialization
 * may not depend on hash order, allocation addresses, or any other
 * run-varying state. Guards the det-unordered-container policy
 * (trace/writer.hh, trace/buffer.cc) end to end.
 */
TEST(TraceFile, IdenticalRunsAreByteIdentical)
{
    workloads::WorkloadConfig cfg;
    cfg.num_threads = 2;
    cfg.records_per_thread = 20000;
    cfg.seed = 42;
    cfg.scale = 0.01;
    auto kernel = workloads::makeRmsKernel("gauss");

    std::string path_a = tempPath("stack3d_repro_a.bin");
    std::string path_b = tempPath("stack3d_repro_b.bin");

    TraceBuffer run_a = kernel->generate(cfg);
    writeTraceFile(path_a, run_a);
    TraceBuffer run_b = kernel->generate(cfg);
    writeTraceFile(path_b, run_b);

    TraceStats stats_a = run_a.computeStats();
    TraceStats stats_b = run_b.computeStats();
    EXPECT_EQ(stats_a.num_records, stats_b.num_records);
    EXPECT_EQ(stats_a.footprint_lines, stats_b.footprint_lines);
    EXPECT_EQ(stats_a.max_dep_chain, stats_b.max_dep_chain);

    std::string bytes_a = fileBytes(path_a);
    std::string bytes_b = fileBytes(path_b);
    ASSERT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b);

    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}
