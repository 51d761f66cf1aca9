#ifndef MLAKE_SERVER_HTTP_H_
#define MLAKE_SERVER_HTTP_H_

// Minimal HTTP/1.1 wire format shared by the lake server and its
// client: request/response framing (Content-Length bodies, plus
// chunked transfer for streamed responses — the governance export),
// header lookup, query-string decoding, the Status -> HTTP code
// mapping, and base64 (artifact bytes travel inside JSON ingest
// bodies). Apart from WriteAll, the one socket send loop, everything
// here is transport-agnostic — listening and request reads live in
// http_server.cc, connects and response reads in client.cc.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"

namespace mlake::server {

/// Hard parser limits: a request line + headers larger than this is
/// rejected as malformed (64 KiB), and bodies are bounded by the
/// caller-supplied budget (HttpServerOptions.max_body_bytes server-side).
inline constexpr size_t kMaxHeaderBytes = 64 * 1024;

/// One parsed HTTP/1.1 request.
struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string target;  // raw request target, e.g. "/v1/search?k=5"
  std::string path;    // decoded path without query string
  std::vector<std::pair<std::string, std::string>> query;    // decoded
  std::vector<std::pair<std::string, std::string>> headers;  // name lowercased
  std::string body;

  /// Case-insensitive header lookup (names are stored lowercased);
  /// empty string when absent.
  std::string_view Header(std::string_view name) const;

  /// First query parameter with `key`, or `fallback`.
  std::string QueryParam(std::string_view key,
                         std::string_view fallback = "") const;

  /// HTTP/1.1 defaults to keep-alive; "Connection: close" opts out.
  bool KeepAlive() const;
};

/// One HTTP response (server side: to serialize; client side: parsed).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::vector<std::pair<std::string, std::string>> headers;  // extra headers
  std::string body;

  /// When set, the response body is produced incrementally: the
  /// serializer frames the head with `Transfer-Encoding: chunked` (no
  /// Content-Length, `body` ignored) and the connection loop pumps
  /// this callback — each call fills `*chunk` with the next block and
  /// returns false when the stream is done. This is how O(1)-memory
  /// responses (the governance export) leave the server.
  std::function<bool(std::string*)> streamer;

  bool is_streaming() const { return static_cast<bool>(streamer); }

  std::string_view Header(std::string_view name) const;
};

/// Incremental request parser. Returns the number of bytes of `buf`
/// consumed when a complete request was parsed into `*out`, 0 when more
/// bytes are needed, and a Status error on malformed input (bad request
/// line, oversized headers, body above `max_body_bytes`, or chunked
/// encoding, which mlaked does not speak).
Result<size_t> ParseHttpRequest(std::string_view buf, size_t max_body_bytes,
                                HttpRequest* out);

/// Incremental response parser with the same 0 = "need more" contract.
/// Unlike requests, responses may arrive chunked (the server's
/// streamed export); the decoded body lands in `out->body` like any
/// other, still bounded by `max_body_bytes`.
Result<size_t> ParseHttpResponse(std::string_view buf, size_t max_body_bytes,
                                 HttpResponse* out);

/// Serializes a response with Content-Length and Connection headers.
/// For a streaming response (see HttpResponse::streamer) this emits
/// only the head with `Transfer-Encoding: chunked`; the caller pumps
/// the streamer through SerializeChunk and finishes with FinalChunk.
std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive);

/// One chunk of a chunked-transfer body (hex size line + data + CRLF).
std::string SerializeChunk(std::string_view data);

/// The terminating zero-chunk ("0\r\n\r\n").
std::string_view FinalChunk();

/// Writes all of `data` to socket `fd`, retrying on EINTR and partial
/// writes. MSG_NOSIGNAL: a peer that closed mid-response yields EPIPE,
/// not a process-killing SIGPIPE. False on any other error, including
/// an expired SO_SNDTIMEO (EAGAIN).
bool WriteAll(int fd, std::string_view data);

/// Serializes a request (always with Content-Length, even when empty —
/// keeps server-side framing trivial).
std::string SerializeHttpRequest(
    std::string_view method, std::string_view target, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& headers);

/// Reason phrase for the handful of codes mlaked emits ("OK",
/// "Not Found", ...); "Unknown" otherwise.
std::string_view HttpStatusText(int status);

/// The canonical Status -> HTTP mapping (the gRPC transcoding table,
/// which the DESIGN.md §10 table mirrors):
///
///   OK                  200    AlreadyExists       409
///   InvalidArgument     400    ResourceExhausted   429
///   NotFound            404    Internal/IOError    500
///   FailedPrecondition  409    Corruption          500
///   OutOfRange          400    Unimplemented       501
///   DeadlineExceeded    504    Unavailable         503
int HttpStatusForStatus(const Status& status);

/// Stable PascalCase token for a status code ("NotFound",
/// "DeadlineExceeded") — the machine-matchable `error.code` field of
/// error bodies.
std::string_view StatusCodeToken(StatusCode code);

/// `{"error": {"code": "<token>", "message": ...}}` with the mapped
/// HTTP status — every handler error takes this shape.
HttpResponse ErrorResponse(const Status& status);

/// JSON 200/`status` response helper.
HttpResponse JsonResponse(Json body, int status = 200);

/// Percent-decodes a URL component ("%2F" -> "/", "+" -> " ").
std::string UrlDecode(std::string_view s);

/// Standard base64 (RFC 4648, with padding).
std::string Base64Encode(std::string_view bytes);
Result<std::string> Base64Decode(std::string_view text);

}  // namespace mlake::server

#endif  // MLAKE_SERVER_HTTP_H_
