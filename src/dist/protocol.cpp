#include "dist/protocol.hpp"

#include <stdexcept>

#include "util/binary_io.hpp"

namespace roadrunner::dist {

bool send_frame(util::Socket& socket, MsgType type,
                const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::runtime_error{"dist: frame payload exceeds limit"};
  }
  util::BinWriter header;
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u8(static_cast<std::uint8_t>(type));
  std::string frame = header.take();
  frame += payload;
  return socket.send_all(frame.data(), frame.size());
}

std::optional<Frame> recv_frame(util::Socket& socket, int timeout_ms) {
  char header[5];
  if (!socket.recv_exact(header, sizeof header, timeout_ms)) {
    return std::nullopt;
  }
  util::BinReader r{std::string_view{header, sizeof header}};
  const std::uint32_t length = r.u32();
  const std::uint8_t type = r.u8();
  if (length > kMaxFramePayload) {
    throw std::runtime_error{"dist: oversized frame (" +
                             std::to_string(length) + " bytes)"};
  }
  Frame frame;
  frame.type = static_cast<MsgType>(type);
  frame.payload.resize(length);
  if (length > 0 &&
      !socket.recv_exact(frame.payload.data(), length, timeout_ms)) {
    throw std::runtime_error{"dist: peer closed mid-frame"};
  }
  return frame;
}

std::pair<std::string, std::uint16_t> parse_endpoint(
    const std::string& text, const std::string& default_host,
    bool allow_port_zero) {
  std::string host = default_host;
  std::string port_text = text;
  const auto colon = text.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
  }
  unsigned long port = 0;
  bool ok = !port_text.empty();
  if (ok) {
    try {
      std::size_t pos = 0;
      port = std::stoul(port_text, &pos);
      ok = pos == port_text.size() && port <= 65535 &&
           (port > 0 || allow_port_zero);
    } catch (const std::exception&) {
      ok = false;
    }
  }
  if (!ok) {
    throw std::invalid_argument{"bad endpoint '" + text +
                                "' (expected HOST:PORT or PORT)"};
  }
  return {host, static_cast<std::uint16_t>(port)};
}

}  // namespace roadrunner::dist
