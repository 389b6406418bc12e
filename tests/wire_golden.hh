/**
 * @file
 * The wire byte fixture, tests/golden/wire_bytes.txt, shared by
 * test_serve_wire and test_shard_wire. It pins the exact bytes of one
 * sample of every message type, so a codec change that moves a single
 * byte fails here before a v1 peer or an old spool notices.
 *
 * One line per sample, "<key> <lowercase hex>"; '#' lines are
 * comments. Each suite owns the keys under its own prefixes ("awp1.",
 * "manifest." / "asw1.") and checks that exactly those keys are
 * present. Regenerate, and justify the change, with
 *
 *     AURORA_UPDATE_GOLDEN=1 ./test_serve_wire
 *     AURORA_UPDATE_GOLDEN=1 ./test_shard_wire
 *
 * Each run rewrites its own keys and keeps the other suite's.
 */

#ifndef AURORA_TESTS_WIRE_GOLDEN_HH
#define AURORA_TESTS_WIRE_GOLDEN_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace wire_golden
{

/** Sample key -> hex of its bytes. */
using Bytes = std::map<std::string, std::string>;

inline std::string
hex(const std::string &bytes)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

inline std::string
path()
{
    return std::string(AURORA_GOLDEN_DIR) + "/wire_bytes.txt";
}

inline Bytes
load()
{
    Bytes entries;
    std::ifstream in(path());
    for (std::string line; std::getline(in, line);) {
        const auto space = line.find(' ');
        if (line.empty() || line[0] == '#' || space == std::string::npos)
            continue;
        entries[line.substr(0, space)] = line.substr(space + 1);
    }
    return entries;
}

inline bool
owned(const std::string &key, const std::vector<std::string> &prefixes)
{
    for (const std::string &prefix : prefixes)
        if (key.compare(0, prefix.size(), prefix) == 0)
            return true;
    return false;
}

/** AURORA_UPDATE_GOLDEN=1: replace this suite's keys in the fixture
 *  with @p actual and return true (the caller skips the check). */
inline bool
update(const std::vector<std::string> &prefixes, const Bytes &actual)
{
    const char *flag = std::getenv("AURORA_UPDATE_GOLDEN");
    if (flag == nullptr || std::string(flag) != "1")
        return false;
    Bytes entries = load();
    std::erase_if(entries, [&](const auto &entry) {
        return owned(entry.first, prefixes);
    });
    entries.insert(actual.begin(), actual.end());
    std::ofstream out(path());
    out << "# wire bytes: one sample of every AWP1 and ASW1 message "
           "(full frames) and one spool\n"
        << "# manifest (.grid file). regenerate: "
           "AURORA_UPDATE_GOLDEN=1 ./test_serve_wire ./test_shard_wire\n";
    for (const auto &[key, value] : entries)
        out << key << ' ' << value << '\n';
    return true;
}

/** Every key under @p prefixes in the fixture equals @p actual. */
inline void
expectMatches(const std::vector<std::string> &prefixes,
              const Bytes &actual)
{
    Bytes golden = load();
    std::erase_if(golden, [&](const auto &entry) {
        return !owned(entry.first, prefixes);
    });
    ASSERT_FALSE(golden.empty())
        << "missing wire fixture " << path()
        << " — run with AURORA_UPDATE_GOLDEN=1 to create";
    for (const auto &[key, value] : actual) {
        const auto it = golden.find(key);
        if (it == golden.end()) {
            ADD_FAILURE() << key << " is not in " << path();
            continue;
        }
        EXPECT_EQ(value, it->second)
            << key << " bytes changed — a v1 peer or an old spool would "
            << "read them differently";
        golden.erase(it);
    }
    for (const auto &entry : golden)
        ADD_FAILURE() << entry.first << " is in " << path()
                      << " but no sample produces it";
}

} // namespace wire_golden

#endif // AURORA_TESTS_WIRE_GOLDEN_HH
