#include "server/http.h"

#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cctype>
#include <cstdlib>
#include <optional>

#include "common/string_util.h"

namespace mlake::server {

namespace {

std::string_view FindHeader(
    const std::vector<std::pair<std::string, std::string>>& headers,
    std::string_view name) {
  for (const auto& [k, v] : headers) {
    if (EqualsIgnoreCase(k, name)) return v;
  }
  return {};
}

/// Parses the header lines of a head from `pos` (just past the start
/// line) to the blank line that ends at `head_end`.
Status ParseHeaderLines(
    std::string_view buf, size_t pos, size_t head_end,
    std::vector<std::pair<std::string, std::string>>* headers) {
  headers->clear();
  while (pos < head_end) {
    size_t eol = buf.find("\r\n", pos);
    if (eol == std::string_view::npos || eol > head_end || eol == pos) break;
    std::string_view line = buf.substr(pos, eol - pos);
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("malformed header line");
    }
    headers->emplace_back(ToLower(Trim(line.substr(0, colon))),
                          std::string(Trim(line.substr(colon + 1))));
    pos = eol + 2;
  }
  return Status::OK();
}

/// The Content-Length header's value, 0 when absent. `what` names the
/// message in the over-budget error.
Result<size_t> ContentLength(
    const std::vector<std::pair<std::string, std::string>>& headers,
    size_t max_body_bytes, std::string_view what) {
  size_t content_length = 0;
  std::string_view cl = FindHeader(headers, "content-length");
  if (!cl.empty()) {
    std::string digits(cl);  // `end` points into it: keep it alive
    char* end = nullptr;
    unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("malformed Content-Length");
    }
    content_length = static_cast<size_t>(v);
  }
  if (content_length > max_body_bytes) {
    return Status::ResourceExhausted(std::string(what) + " body exceeds " +
                                     std::to_string(max_body_bytes) +
                                     " bytes");
  }
  return content_length;
}

/// The size of a chunk from its size line (extensions dropped).
Result<uint64_t> ParseChunkSize(std::string_view size_line) {
  if (size_t semi = size_line.find(';'); semi != std::string_view::npos) {
    size_line = size_line.substr(0, semi);  // drop chunk extensions
  }
  size_line = Trim(size_line);
  if (size_line.empty() || size_line.size() > 16) {
    return Status::InvalidArgument("malformed chunk size");
  }
  uint64_t chunk_size = 0;
  for (char c : size_line) {
    if (!std::isxdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("malformed chunk size");
    }
    int digit = std::isdigit(static_cast<unsigned char>(c))
                    ? c - '0'
                    : std::tolower(static_cast<unsigned char>(c)) - 'a' + 10;
    chunk_size = chunk_size * 16 + static_cast<uint64_t>(digit);
  }
  return chunk_size;
}

}  // namespace

std::string_view HttpRequest::Header(std::string_view name) const {
  return FindHeader(headers, name);
}

std::string HttpRequest::QueryParam(std::string_view key,
                                    std::string_view fallback) const {
  for (const auto& [k, v] : query) {
    if (k == key) return v;
  }
  return std::string(fallback);
}

bool HttpRequest::KeepAlive() const {
  return !EqualsIgnoreCase(Header("connection"), "close");
}

std::string_view HttpResponse::Header(std::string_view name) const {
  return FindHeader(headers, name);
}

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() && std::isxdigit(s[i + 1]) &&
               std::isxdigit(s[i + 2])) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        return std::tolower(c) - 'a' + 10;
      };
      out.push_back(static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

Result<size_t> ParseHttpRequest(std::string_view buf, size_t max_body_bytes,
                                HttpRequest* out) {
  size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (buf.size() > kMaxHeaderBytes) {
      return Status::InvalidArgument("request head exceeds 64 KiB");
    }
    return size_t{0};
  }
  head_end += 4;
  size_t line_end = buf.find("\r\n");
  std::string_view line = buf.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    return Status::InvalidArgument("malformed request line");
  }
  std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Status::InvalidArgument("unsupported HTTP version");
  }
  out->method = std::string(line.substr(0, sp1));
  out->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  if (out->target.empty() || out->target[0] != '/') {
    return Status::InvalidArgument("malformed request target");
  }

  out->query.clear();
  size_t qmark = out->target.find('?');
  out->path = UrlDecode(std::string_view(out->target).substr(0, qmark));
  if (qmark != std::string::npos) {
    for (const std::string& pair :
         Split(std::string_view(out->target).substr(qmark + 1), '&')) {
      if (pair.empty()) continue;
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        out->query.emplace_back(UrlDecode(pair), "");
      } else {
        out->query.emplace_back(
            UrlDecode(std::string_view(pair).substr(0, eq)),
            UrlDecode(std::string_view(pair).substr(eq + 1)));
      }
    }
  }
  MLAKE_RETURN_NOT_OK(
      ParseHeaderLines(buf, line_end + 2, head_end, &out->headers));
  if (!out->Header("transfer-encoding").empty()) {
    return Status::Unimplemented("chunked transfer encoding not supported");
  }
  MLAKE_ASSIGN_OR_RETURN(
      size_t content_length,
      ContentLength(out->headers, max_body_bytes, "request"));
  if (buf.size() - head_end < content_length) return size_t{0};  // need more
  out->body.assign(buf.substr(head_end, content_length));
  return head_end + content_length;
}

Status HttpResponseReader::ParseHead(std::string_view head) {
  size_t line_end = head.find("\r\n");
  std::string_view line = head.substr(0, line_end);
  if (!StartsWith(line, "HTTP/1.")) {
    return Status::InvalidArgument("malformed status line");
  }
  size_t sp = line.find(' ');
  if (sp == std::string_view::npos || line.size() < sp + 4) {
    return Status::InvalidArgument("malformed status line");
  }
  response_.status = 0;
  for (size_t i = sp + 1; i < sp + 4; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(line[i]))) {
      return Status::InvalidArgument("malformed status code");
    }
    response_.status = response_.status * 10 + (line[i] - '0');
  }
  MLAKE_RETURN_NOT_OK(
      ParseHeaderLines(head, line_end + 2, head.size(), &response_.headers));
  response_.content_type = std::string(response_.Header("content-type"));
  std::string_view te = response_.Header("transfer-encoding");
  if (!te.empty()) {
    if (!EqualsIgnoreCase(te, "chunked")) {
      return Status::Unimplemented("chunked transfer encoding not supported");
    }
    state_ = State::kChunkSize;
    return Status::OK();
  }
  MLAKE_ASSIGN_OR_RETURN(
      remaining_, ContentLength(response_.headers, max_body_bytes_, "response"));
  response_.body.reserve(remaining_);
  state_ = State::kBody;
  return Status::OK();
}

Result<bool> HttpResponseReader::Advance(std::string_view in, size_t* pos) {
  // Appends up to `remaining_` bytes of `in` to the body.
  auto take_body = [&] {
    size_t n = std::min(remaining_, in.size() - *pos);
    response_.body.append(in.substr(*pos, n));
    *pos += n;
    remaining_ -= n;
    return remaining_ == 0;
  };
  // The next complete line from `*pos` (CRLF excluded), or nullopt when
  // it has not fully arrived; an unfinished line longer than the head
  // limit is malformed rather than buffered without bound.
  auto next_line = [&](const char* what)
      -> Result<std::optional<std::string_view>> {
    size_t eol = in.find("\r\n", *pos);
    if (eol == std::string_view::npos) {
      if (in.size() - *pos > kMaxHeaderBytes) {
        return Status::InvalidArgument(std::string(what) +
                                       " exceeds 64 KiB");
      }
      return std::optional<std::string_view>();
    }
    std::string_view line = in.substr(*pos, eol - *pos);
    *pos = eol + 2;
    return std::optional<std::string_view>(line);
  };

  for (;;) {
    switch (state_) {
      case State::kHead: {
        // The head is never consumed piecemeal: `in` starts at the
        // response's first byte until the blank line arrives.
        size_t end = in.find("\r\n\r\n", head_scan_);
        if (end == std::string_view::npos) {
          if (in.size() > kMaxHeaderBytes) {
            return Status::InvalidArgument("response head exceeds 64 KiB");
          }
          head_scan_ = in.size() < 3 ? 0 : in.size() - 3;
          return false;
        }
        MLAKE_RETURN_NOT_OK(ParseHead(in.substr(0, end + 4)));
        *pos = end + 4;
        break;
      }
      case State::kBody:
        if (!take_body()) return false;
        state_ = State::kDone;
        break;
      case State::kChunkSize: {
        MLAKE_ASSIGN_OR_RETURN(auto line, next_line("chunk size line"));
        if (!line) return false;
        MLAKE_ASSIGN_OR_RETURN(uint64_t size, ParseChunkSize(*line));
        if (size == 0) {
          state_ = State::kTrailer;
          break;
        }
        if (size > max_body_bytes_ - response_.body.size()) {
          return Status::ResourceExhausted("chunked body exceeds " +
                                           std::to_string(max_body_bytes_) +
                                           " bytes");
        }
        remaining_ = static_cast<size_t>(size);
        state_ = State::kChunkData;
        break;
      }
      case State::kChunkData:
        if (!take_body()) return false;
        state_ = State::kChunkEnd;
        break;
      case State::kChunkEnd:
        if (in.size() - *pos < 2) return false;
        if (in.substr(*pos, 2) != "\r\n") {
          return Status::InvalidArgument("chunk data not CRLF-terminated");
        }
        *pos += 2;
        state_ = State::kChunkSize;
        break;
      case State::kTrailer: {
        // Trailer lines until the blank line. mlaked sends none, but
        // skipping them keeps the reader conforming.
        MLAKE_ASSIGN_OR_RETURN(auto line, next_line("trailer line"));
        if (!line) return false;
        if (line->empty()) state_ = State::kDone;
        break;
      }
      case State::kDone:
        return true;
    }
  }
}

Result<bool> HttpResponseReader::Feed(std::string_view bytes) {
  if (state_ == State::kDone) return true;
  // Work straight from `bytes` when nothing is pending; otherwise the
  // pending unfinished line (or head) continues into them.
  std::string_view in = bytes;
  if (!pending_.empty()) {
    pending_.append(bytes);
    in = pending_;
  }
  size_t pos = 0;
  MLAKE_ASSIGN_OR_RETURN(bool done, Advance(in, &pos));
  consumed_ += pos;
  if (done) {
    pending_.clear();
  } else if (pending_.empty()) {
    pending_.assign(in.substr(pos));
  } else {
    pending_.erase(0, pos);
  }
  return done;
}

Result<size_t> ParseHttpResponse(std::string_view buf, size_t max_body_bytes,
                                 HttpResponse* out) {
  HttpResponseReader reader(max_body_bytes);
  MLAKE_ASSIGN_OR_RETURN(bool done, reader.Feed(buf));
  if (!done) return size_t{0};
  *out = std::move(reader.response());
  return reader.consumed();
}

std::string SerializeHttpResponseHead(const HttpResponse& response,
                                      bool keep_alive) {
  std::string out;
  out += "HTTP/1.1 " + std::to_string(response.status) + " " +
         std::string(HttpStatusText(response.status)) + "\r\n";
  if (!response.content_type.empty()) {
    out += "Content-Type: " + response.content_type + "\r\n";
  }
  if (response.is_streaming()) {
    out += "Transfer-Encoding: chunked\r\n";
  } else {
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [k, v] : response.headers) {
    out += k + ": " + v + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive) {
  std::string out = SerializeHttpResponseHead(response, keep_alive);
  if (!response.is_streaming()) out += response.body;
  return out;
}

std::string ChunkHead(size_t size) { return StrFormat("%zx\r\n", size); }

std::string_view FinalChunk() { return "0\r\n\r\n"; }

bool WriteAll(int fd, std::string_view first, std::string_view second) {
  iovec iov[2] = {{const_cast<char*>(first.data()), first.size()},
                  {const_cast<char*>(second.data()), second.size()}};
  size_t at = 0;  // first iovec with bytes left
  for (;;) {
    while (at < 2 && iov[at].iov_len == 0) ++at;
    if (at == 2) return true;
    msghdr msg{};
    msg.msg_iov = iov + at;
    msg.msg_iovlen = 2 - at;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // Partial send: skip what went out, possibly into the second part.
    size_t sent = static_cast<size_t>(n);
    for (; at < 2 && sent >= iov[at].iov_len; ++at) sent -= iov[at].iov_len;
    if (at < 2) {
      iov[at].iov_base = static_cast<char*>(iov[at].iov_base) + sent;
      iov[at].iov_len -= sent;
    }
  }
}

std::string SerializeHttpRequest(
    std::string_view method, std::string_view target, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string out;
  out.reserve(body.size() + 256);
  out += std::string(method) + " " + std::string(target) + " HTTP/1.1\r\n";
  out += "Host: mlaked\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (!body.empty()) out += "Content-Type: application/json\r\n";
  for (const auto& [k, v] : headers) {
    out += k + ": " + v + "\r\n";
  }
  out += "\r\n";
  out += std::string(body);
  return out;
}

std::string_view HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

int HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kAlreadyExists: return 409;
    case StatusCode::kFailedPrecondition: return 409;
    case StatusCode::kResourceExhausted: return 429;
    case StatusCode::kUnimplemented: return 501;
    case StatusCode::kUnavailable: return 503;
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kIOError: return 500;
    case StatusCode::kCorruption: return 500;
    case StatusCode::kInternal: return 500;
  }
  return 500;
}

std::string_view StatusCodeToken(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "Ok";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
    case StatusCode::kNotFound: return "NotFound";
    case StatusCode::kAlreadyExists: return "AlreadyExists";
    case StatusCode::kIOError: return "IOError";
    case StatusCode::kCorruption: return "Corruption";
    case StatusCode::kFailedPrecondition: return "FailedPrecondition";
    case StatusCode::kOutOfRange: return "OutOfRange";
    case StatusCode::kUnimplemented: return "Unimplemented";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kUnavailable: return "Unavailable";
    case StatusCode::kResourceExhausted: return "ResourceExhausted";
    case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
  }
  return "Unknown";
}

HttpResponse ErrorResponse(const Status& status) {
  Json error = Json::MakeObject();
  error.Set("code", std::string(StatusCodeToken(status.code())));
  error.Set("message", status.message());
  Json body = Json::MakeObject();
  body.Set("error", std::move(error));
  HttpResponse response;
  response.status = HttpStatusForStatus(status);
  response.body = body.Dump() + "\n";
  if (response.status == 429) {
    response.headers.emplace_back("Retry-After", "1");
  }
  return response;
}

HttpResponse JsonResponse(Json body, int status) {
  HttpResponse response;
  response.status = status;
  response.body = body.Dump() + "\n";
  return response;
}

namespace {
constexpr char kBase64Chars[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
}  // namespace

std::string Base64Encode(std::string_view bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  size_t i = 0;
  while (i + 3 <= bytes.size()) {
    uint32_t v = (static_cast<uint8_t>(bytes[i]) << 16) |
                 (static_cast<uint8_t>(bytes[i + 1]) << 8) |
                 static_cast<uint8_t>(bytes[i + 2]);
    out.push_back(kBase64Chars[(v >> 18) & 63]);
    out.push_back(kBase64Chars[(v >> 12) & 63]);
    out.push_back(kBase64Chars[(v >> 6) & 63]);
    out.push_back(kBase64Chars[v & 63]);
    i += 3;
  }
  size_t rem = bytes.size() - i;
  if (rem == 1) {
    uint32_t v = static_cast<uint8_t>(bytes[i]) << 16;
    out.push_back(kBase64Chars[(v >> 18) & 63]);
    out.push_back(kBase64Chars[(v >> 12) & 63]);
    out += "==";
  } else if (rem == 2) {
    uint32_t v = (static_cast<uint8_t>(bytes[i]) << 16) |
                 (static_cast<uint8_t>(bytes[i + 1]) << 8);
    out.push_back(kBase64Chars[(v >> 18) & 63]);
    out.push_back(kBase64Chars[(v >> 12) & 63]);
    out.push_back(kBase64Chars[(v >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

Result<std::string> Base64Decode(std::string_view text) {
  static const auto value_of = [] {
    std::array<int8_t, 256> table;
    table.fill(-1);
    for (int i = 0; i < 64; ++i) {
      table[static_cast<uint8_t>(kBase64Chars[i])] = static_cast<int8_t>(i);
    }
    return table;
  }();
  if (text.size() % 4 != 0) {
    return Status::InvalidArgument("base64 length not a multiple of 4");
  }
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (size_t i = 0; i < text.size(); i += 4) {
    int pad = 0;
    uint32_t v = 0;
    for (size_t j = 0; j < 4; ++j) {
      char c = text[i + j];
      if (c == '=' && i + 4 == text.size() && j >= 2) {
        ++pad;
        v <<= 6;
        continue;
      }
      int8_t d = value_of[static_cast<uint8_t>(c)];
      if (d < 0 || pad > 0) {
        return Status::InvalidArgument("invalid base64 character");
      }
      v = (v << 6) | static_cast<uint32_t>(d);
    }
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    if (pad < 2) out.push_back(static_cast<char>((v >> 8) & 0xff));
    if (pad < 1) out.push_back(static_cast<char>(v & 0xff));
  }
  return out;
}

}  // namespace mlake::server
