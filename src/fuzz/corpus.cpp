#include "fuzz/corpus.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>

#include "trace/log_codec.hpp"

namespace bfly::fuzz {

namespace {

constexpr char kMagic[4] = {'B', 'F', 'Z', 'R'};
constexpr std::uint8_t kVersion = 1;

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Bounds-checked reader over the encoded buffer. */
struct Reader
{
    const std::uint8_t *p;
    const std::uint8_t *end;

    void
    need(std::size_t n) const
    {
        if (static_cast<std::size_t>(end - p) < n)
            throw std::runtime_error("fuzz repro: truncated");
    }

    std::uint8_t
    u8()
    {
        need(1);
        return *p++;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(*p++) << (8 * i);
        return v;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const std::uint8_t byte = u8();
            v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0)
                return v;
        }
        throw std::runtime_error("fuzz repro: varint overflow");
    }
};

} // namespace

std::vector<std::uint8_t>
encodeCase(const FuzzCase &c)
{
    std::vector<std::uint8_t> out(kMagic, kMagic + 4);
    out.push_back(kVersion);
    putU64(out, c.caseId);
    putU64(out, c.interleaveSeed);
    putVarint(out, c.globalH);
    putU64(out, c.heapBase);
    putU64(out, c.heapLimit);
    out.push_back(static_cast<std::uint8_t>(c.model));

    putVarint(out, c.scenario.size());
    out.insert(out.end(), c.scenario.begin(), c.scenario.end());

    putVarint(out, c.speedWeights.size());
    for (double w : c.speedWeights) {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof w);
        std::memcpy(&bits, &w, sizeof bits);
        putU64(out, bits);
    }

    putVarint(out, c.programs.size());
    for (const auto &program : c.programs) {
        const std::vector<std::uint8_t> payload = encodeEvents(program);
        putVarint(out, payload.size());
        out.insert(out.end(), payload.begin(), payload.end());
    }
    return out;
}

FuzzCase
decodeCase(const std::vector<std::uint8_t> &bytes)
{
    Reader r{bytes.data(), bytes.data() + bytes.size()};
    r.need(4);
    if (std::memcmp(r.p, kMagic, 4) != 0)
        throw std::runtime_error("fuzz repro: bad magic");
    r.p += 4;
    if (r.u8() != kVersion)
        throw std::runtime_error("fuzz repro: unsupported version");

    FuzzCase c;
    c.caseId = r.u64();
    c.interleaveSeed = r.u64();
    c.globalH = static_cast<std::size_t>(r.varint());
    c.heapBase = r.u64();
    c.heapLimit = r.u64();
    const std::uint8_t model = r.u8();
    if (model > static_cast<std::uint8_t>(MemModel::TSO))
        throw std::runtime_error("fuzz repro: bad memory model");
    c.model = static_cast<MemModel>(model);

    const std::size_t scenario_len =
        static_cast<std::size_t>(r.varint());
    r.need(scenario_len);
    c.scenario.assign(reinterpret_cast<const char *>(r.p), scenario_len);
    r.p += scenario_len;

    const std::size_t nweights = static_cast<std::size_t>(r.varint());
    c.speedWeights.reserve(nweights);
    for (std::size_t i = 0; i < nweights; ++i) {
        const std::uint64_t bits = r.u64();
        double w = 0;
        std::memcpy(&w, &bits, sizeof w);
        c.speedWeights.push_back(w);
    }

    const std::size_t nthreads = static_cast<std::size_t>(r.varint());
    c.programs.reserve(nthreads);
    for (std::size_t t = 0; t < nthreads; ++t) {
        const std::size_t len = static_cast<std::size_t>(r.varint());
        r.need(len);
        c.programs.push_back(decodeEvents({r.p, len}));
        r.p += len;
    }
    if (r.p != r.end)
        throw std::runtime_error("fuzz repro: trailing bytes");
    return c;
}

bool
saveRepro(const FuzzCase &c, const std::string &path)
{
    const std::vector<std::uint8_t> bytes = encodeCase(c);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return static_cast<bool>(out);
}

FuzzCase
loadRepro(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("fuzz repro: cannot open " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return decodeCase(bytes);
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".bfz")
            out.push_back(entry.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
reproFileName(const FuzzCase &c)
{
    return c.scenario + "-" + std::to_string(c.caseId) + ".bfz";
}

} // namespace bfly::fuzz
