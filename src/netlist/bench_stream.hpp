// Streaming `.bench` reader/writer — the repo's one `.bench` implementation
// (grammar in bench_io.hpp; bench_io's parse() and write() are thin string
// wrappers over stream_parse() and stream_write()).
//
// The reader works in fixed chunks and scans lines in place (string_views
// into the chunk buffer, names copied once into a flat arena keyed by a
// local interner), then builds the Netlist:
//
//   - deterministic structure and NameIds: names are interned into the new
//     netlist's table in node-creation order (inputs in declaration order,
//     then gates in dependency-DFS materialization order) through one
//     NameTable::intern_batch call, independent of the chunk size;
//   - linear cost: one hash per name occurrence; each node's longest-path
//     level is computed as it is created, and the (level, id) topological
//     order they give is primed, so validate() checks it in O(N+E);
//   - line-numbered diagnostics: every malformed input fails with a
//     "bench parse error at line N: ..." message, scan errors taking
//     precedence over build errors; a stream read error is reported as
//     such, never as end of file;
//   - bounded memory: peak transient state is the chunk buffer plus flat
//     per-gate records (POD, one u32 per operand) — never one heap string
//     per line and never the whole file.
//
// The writer emits into a std::ostream as it goes, so a million-gate
// netlist serializes without building the full text in memory. Chunk-size
// independence, the exact diagnostics and the write/read round trip are
// pinned by tests/test_bench_stream.cpp.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace autolock::netlist::bench {

/// Default chunk size for the streaming reader.
inline constexpr std::size_t kStreamChunkBytes = std::size_t{1} << 20;

/// Parses BENCH text from a stream in `chunk_bytes`-sized reads. The result
/// (structure, NameIds, node order) and every error message are independent
/// of `chunk_bytes`. A line longer than the chunk size is handled by growing
/// the carry buffer, not an error. Throws std::runtime_error on malformed
/// input and when the stream reports a read error.
Netlist stream_parse(std::istream& in, std::string circuit_name = "bench",
                     std::size_t chunk_bytes = kStreamChunkBytes);

/// Opens and stream-parses a .bench file. The circuit name is the file name
/// without directory and extension ("dir/c432.bench" -> "c432").
Netlist stream_load_file(const std::string& path,
                         std::size_t chunk_bytes = kStreamChunkBytes);

/// Serializes in BENCH syntax directly into `out`, without materializing the
/// text (bench_io::write() captures exactly these bytes into a string).
void stream_write(const Netlist& netlist, std::ostream& out);

/// Streams the netlist into a file (throws on I/O failure).
void stream_save_file(const Netlist& netlist, const std::string& path);

}  // namespace autolock::netlist::bench
