// ISCAS-85 style `.bench` reader/writer.
//
// Grammar (one statement per line, '#' starts a comment):
//   INPUT(name)
//   OUTPUT(name)
//   name = GATE(operand, operand, ...)
//   name = CONST0 / CONST1            (extension used by some locking tools)
//
// Convention (shared with the logic-locking literature, e.g. D-MUX/MuxLink
// artifact releases): inputs whose name starts with "keyinput" are key
// inputs; the integer suffix gives the key-bit index. MUX gates are written
// MUX(select, in0, in1).
//
// This header is the in-memory face of the one `.bench` implementation in
// bench_stream.{hpp,cpp}: parse() and write() run the streaming reader and
// writer over a string. Files go through stream_load_file/stream_save_file.
#pragma once

#include <string>
#include <string_view>

#include "netlist/netlist.hpp"

namespace autolock::netlist::bench {

/// Parses BENCH text (stream_parse over an in-memory stream). Throws
/// std::runtime_error with a line number on malformed input (unknown gate,
/// undefined operand, duplicate definition, arity violation, combinational
/// cycle).
Netlist parse(std::string_view text, std::string circuit_name = "bench");

/// Serializes in BENCH syntax (stream_write into a string): inputs, outputs,
/// then gate lines in topological order. Key inputs are emitted as ordinary
/// INPUT lines (their names carry the convention). parse(write(n))
/// reproduces the structure.
std::string write(const Netlist& netlist);

/// Largest key-bit index accepted in a key-input name. Indices beyond this
/// (or digit runs that overflow int) are rejected: key_bit_index returns
/// -1, and parse() reports a line-numbered error instead of silently
/// treating the signal as a primary input.
inline constexpr int kMaxKeyBitIndex = 1'000'000;

/// True if `name` follows the key-input convention ("keyinput<digits>" with
/// an in-range index).
bool is_key_input_name(std::string_view name) noexcept;

/// Extracts the key-bit index from a key-input name; -1 if not a key name
/// (including indices that overflow or exceed kMaxKeyBitIndex).
int key_bit_index(std::string_view name) noexcept;

}  // namespace autolock::netlist::bench
