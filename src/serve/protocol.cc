#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace lima {
namespace serve {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  // Little-endian, byte by byte: independent of host endianness.
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

/// Reads a u32 at `pos`, advancing it; fails on truncation.
Result<uint32_t> TakeU32(std::string_view payload, size_t* pos) {
  if (payload.size() - *pos < 4) {
    return Status::IoError("protocol: truncated frame (u32 expected)");
  }
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(payload.data()) + *pos;
  *pos += 4;
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

Result<std::string_view> TakeBytes(std::string_view payload, size_t* pos,
                                   uint32_t len) {
  if (payload.size() - *pos < len) {
    return Status::IoError("protocol: truncated frame (field data)");
  }
  std::string_view out = payload.substr(*pos, len);
  *pos += len;
  return out;
}

/// Full read of `len` bytes; EOF mid-read is an error, EOF at the first
/// byte is reported via *eof_at_start (clean connection close).
Status ReadExact(int fd, char* buf, size_t len, bool* eof_at_start) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::read(fd, buf + done, len - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired (lima_serve's per-connection read deadline).
        return Status::IoError(
            "protocol: read deadline exceeded waiting for peer data");
      }
      return Status::IoError(std::string("protocol: read failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      if (done == 0 && eof_at_start != nullptr) {
        *eof_at_start = true;
        return Status::OK();
      }
      return Status::IoError("protocol: truncated frame (unexpected EOF)");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteExact(int fd, const char* buf, size_t len) {
  size_t done = 0;
  while (done < len) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not kill the
    // daemon with SIGPIPE (all protocol fds are sockets).
    ssize_t n = ::send(fd, buf + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("protocol: write failed: ") +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

const std::string* Message::Find(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Message::Get(std::string_view key, std::string fallback) const {
  const std::string* value = Find(key);
  return value != nullptr ? *value : std::move(fallback);
}

std::string EncodeMessage(const Message& message) {
  std::string out;
  size_t size = 4;
  for (const auto& [k, v] : message.fields) size += 8 + k.size() + v.size();
  out.reserve(size);
  AppendU32(&out, static_cast<uint32_t>(message.fields.size()));
  for (const auto& [k, v] : message.fields) {
    AppendU32(&out, static_cast<uint32_t>(k.size()));
    out.append(k);
    AppendU32(&out, static_cast<uint32_t>(v.size()));
    out.append(v);
  }
  return out;
}

Result<Message> DecodeMessage(std::string_view payload) {
  size_t pos = 0;
  LIMA_ASSIGN_OR_RETURN(uint32_t count, TakeU32(payload, &pos));
  // Each field needs >= 8 bytes of length prefixes; rejects absurd counts
  // before the loop allocates anything.
  if (count > payload.size() / 8) {
    return Status::IoError("protocol: field count exceeds frame size");
  }
  Message message;
  message.fields.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    LIMA_ASSIGN_OR_RETURN(uint32_t klen, TakeU32(payload, &pos));
    LIMA_ASSIGN_OR_RETURN(std::string_view key, TakeBytes(payload, &pos, klen));
    LIMA_ASSIGN_OR_RETURN(uint32_t vlen, TakeU32(payload, &pos));
    LIMA_ASSIGN_OR_RETURN(std::string_view value,
                          TakeBytes(payload, &pos, vlen));
    message.fields.emplace_back(std::string(key), std::string(value));
  }
  if (pos != payload.size()) {
    return Status::IoError("protocol: trailing bytes after last field");
  }
  return message;
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::IoError("protocol: frame exceeds 16MB limit");
  }
  std::string header;
  AppendU32(&header, static_cast<uint32_t>(payload.size()));
  LIMA_RETURN_NOT_OK(WriteExact(fd, header.data(), header.size()));
  return WriteExact(fd, payload.data(), payload.size());
}

Result<std::string> ReadFrame(int fd) {
  char header[4];
  bool eof = false;
  LIMA_RETURN_NOT_OK(ReadExact(fd, header, sizeof(header), &eof));
  if (eof) return Status::IoError("connection closed");
  size_t pos = 0;
  LIMA_ASSIGN_OR_RETURN(
      uint32_t len, TakeU32(std::string_view(header, sizeof(header)), &pos));
  if (len > kMaxFrameBytes) {
    return Status::IoError("protocol: frame exceeds 16MB limit");
  }
  std::string payload(len, '\0');
  LIMA_RETURN_NOT_OK(ReadExact(fd, payload.data(), len, nullptr));
  return payload;
}

Status WriteMessage(int fd, const Message& message) {
  return WriteFrame(fd, EncodeMessage(message));
}

Result<Message> ReadMessage(int fd) {
  LIMA_ASSIGN_OR_RETURN(std::string payload, ReadFrame(fd));
  return DecodeMessage(payload);
}

}  // namespace serve
}  // namespace lima
