#include "file.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace stack3d {
namespace trace {

namespace {

constexpr char kMagic[8] = {'S', '3', 'D', 'T', 'R', 'A', 'C', 'E'};

/** On-disk packed record: 8+8+8+1+1+1 = 27 bytes + 5 pad = 32. */
struct PackedRecord
{
    std::uint64_t addr;
    std::uint64_t ip;
    std::uint64_t dep;
    std::uint8_t cpu;
    std::uint8_t op;
    std::uint8_t size;
    std::uint8_t pad[5];
};
static_assert(sizeof(PackedRecord) == 32, "packed record must be 32 B");

struct Header
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t reserved;
    std::uint64_t num_records;
};
static_assert(sizeof(Header) == 24, "header must be 24 B");

} // anonymous namespace

void
writeTraceFile(const std::string &path, const TraceBuffer &buf)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        stack3d_fatal("cannot create trace file '", path, "'");

    Header hdr{};
    static_assert(std::is_trivially_copyable_v<Header>,
                  "header is written as raw bytes");
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic)); // lint3d: safe-memcpy-ok

    hdr.version = kTraceFileVersion;
    hdr.num_records = buf.size();
    out.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));

    // Write in chunks to bound memory for very large traces.
    constexpr std::size_t chunk = 1 << 16;
    std::vector<PackedRecord> pack;
    pack.reserve(chunk);
    for (std::size_t i = 0; i < buf.size(); ++i) {
        const TraceRecord rec = buf[i];
        PackedRecord p{};
        p.addr = rec.addr;
        p.ip = rec.ip;
        p.dep = rec.dep;
        p.cpu = rec.cpu;
        p.op = std::uint8_t(rec.op);
        p.size = rec.size;
        pack.push_back(p);
        if (pack.size() == chunk) {
            out.write(reinterpret_cast<const char *>(pack.data()),
                      std::streamsize(pack.size() * sizeof(PackedRecord)));
            pack.clear();
        }
    }
    if (!pack.empty()) {
        out.write(reinterpret_cast<const char *>(pack.data()),
                  std::streamsize(pack.size() * sizeof(PackedRecord)));
    }
    if (!out)
        stack3d_fatal("write error on trace file '", path, "'");
}

TraceBuffer
readTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        stack3d_fatal("cannot open trace file '", path, "'");

    Header hdr{};
    in.read(reinterpret_cast<char *>(&hdr), sizeof(hdr));
    if (!in || std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        stack3d_fatal("'", path, "' is not a stack3d trace file");
    if (hdr.version != kTraceFileVersion) {
        stack3d_fatal("trace file version ", hdr.version,
                      " unsupported (expected ", kTraceFileVersion, ")");
    }

    // The record count is outside input: check it against what the
    // file holds and what a trace can index before sizing anything.
    const std::streamoff body = in.tellg();
    in.seekg(0, std::ios::end);
    const std::uint64_t body_bytes = std::uint64_t(in.tellg() - body);
    in.seekg(body);
    if (!in || hdr.num_records > body_bytes / sizeof(PackedRecord))
        stack3d_fatal("truncated trace file '", path, "'");
    if (hdr.num_records > kMaxTraceRecords) {
        stack3d_fatal("trace file '", path, "' holds ", hdr.num_records,
                      " records; at most ", kMaxTraceRecords,
                      " are supported");
    }

    TraceColumns::Builder records(hdr.num_records);
    std::vector<PackedRecord> pack(TraceColumns::kDecodeBatch);
    std::uint64_t remaining = hdr.num_records;
    while (remaining > 0) {
        std::size_t n = std::size_t(
            std::min<std::uint64_t>(remaining, pack.size()));
        in.read(reinterpret_cast<char *>(pack.data()),
                std::streamsize(n * sizeof(PackedRecord)));
        if (!in)
            stack3d_fatal("truncated trace file '", path, "'");
        for (std::size_t i = 0; i < n; ++i) {
            const PackedRecord &p = pack[i];
            TraceRecord rec;
            rec.addr = p.addr;
            rec.ip = p.ip;
            rec.dep = p.dep;
            rec.cpu = p.cpu;
            rec.op = MemOp(p.op);
            rec.size = p.size;
            records.push(rec);
        }
        remaining -= n;
    }

    TraceBuffer buf(records.finish());
    if (!buf.validate())
        stack3d_fatal("trace file '", path, "' contains invalid records");
    return buf;
}

} // namespace trace
} // namespace stack3d
