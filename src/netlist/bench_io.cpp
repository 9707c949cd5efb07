#include "netlist/bench_io.hpp"

#include <cctype>
#include <sstream>
#include <utility>

#include "netlist/bench_stream.hpp"

namespace autolock::netlist::bench {

int key_bit_index(std::string_view name) noexcept {
  constexpr std::string_view kPrefix = "keyinput";
  if (name.size() <= kPrefix.size()) return -1;
  if (name.substr(0, kPrefix.size()) != kPrefix) return -1;
  int value = 0;
  for (char ch : name.substr(kPrefix.size())) {
    // Digits only; accumulate with an overflow guard so "keyinput99999999999"
    // cannot wrap around into a bogus (possibly colliding) bit index.
    if (!std::isdigit(static_cast<unsigned char>(ch))) return -1;
    if (value > kMaxKeyBitIndex / 10) return -1;
    value = value * 10 + (ch - '0');
    if (value > kMaxKeyBitIndex) return -1;
  }
  return value;
}

bool is_key_input_name(std::string_view name) noexcept {
  return key_bit_index(name) >= 0;
}

Netlist parse(std::string_view text, std::string circuit_name) {
  std::istringstream in{std::string(text)};
  return stream_parse(in, std::move(circuit_name));
}

std::string write(const Netlist& netlist) {
  std::ostringstream out;
  stream_write(netlist, out);
  return out.str();
}

}  // namespace autolock::netlist::bench
