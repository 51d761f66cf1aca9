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

/// Incremental response reader: the client feeds it each socket read
/// and it keeps its state across reads. The head is parsed once; a
/// Content-Length body is appended as it arrives; a chunked body (the
/// server's streamed export) is decoded chunk by chunk, each chunk
/// exactly once, resuming where the last scan stopped. Only an
/// unfinished line — a partial head, chunk-size line or trailer line,
/// each bounded by kMaxHeaderBytes — is buffered, so a drain holds the
/// decoded body once and costs time linear in its bytes. The body is
/// bounded by `max_body_bytes` either way.
class HttpResponseReader {
 public:
  explicit HttpResponseReader(size_t max_body_bytes)
      : max_body_bytes_(max_body_bytes) {}

  /// Consumes the next `bytes` of the stream. True once the response is
  /// complete (bytes past its end are ignored), false when more bytes
  /// are needed, and an error on malformed framing (InvalidArgument), a
  /// body above the budget (ResourceExhausted) or a Transfer-Encoding
  /// other than chunked (Unimplemented). A reader that returned an error
  /// must not be fed again.
  Result<bool> Feed(std::string_view bytes);

  /// The response; complete once Feed returned true.
  HttpResponse& response() { return response_; }

  /// Stream bytes the complete response spanned, head through the final
  /// CRLF.
  size_t consumed() const { return consumed_; }

 private:
  enum class State {
    kHead, kBody, kChunkSize, kChunkData, kChunkEnd, kTrailer, kDone
  };

  /// Runs the state machine over `in` from `*pos`, advancing `*pos`
  /// past every byte it used. True when the response is complete.
  Result<bool> Advance(std::string_view in, size_t* pos);
  /// Status line and headers; picks the body state.
  Status ParseHead(std::string_view head);

  size_t max_body_bytes_;
  HttpResponse response_;
  State state_ = State::kHead;
  std::string pending_;   // unfinished bytes carried to the next Feed
  size_t head_scan_ = 0;  // where the search for the head's end resumes
  size_t remaining_ = 0;  // bytes left in the body or the current chunk
  size_t consumed_ = 0;
};

/// One-call form of HttpResponseReader with ParseHttpRequest's contract:
/// bytes of `buf` consumed when it holds a complete response (parsed
/// into `*out`), 0 when more bytes are needed, an error on malformed
/// input. Each call decodes `buf` from its start, so a caller reading a
/// socket feeds an HttpResponseReader instead.
Result<size_t> ParseHttpResponse(std::string_view buf, size_t max_body_bytes,
                                 HttpResponse* out);

/// Serializes a response with Content-Length and Connection headers.
/// For a streaming response (see HttpResponse::streamer) this emits
/// only the head with `Transfer-Encoding: chunked`; the caller pumps
/// the streamer, framing each chunk with ChunkHead, and finishes with
/// FinalChunk.
std::string SerializeHttpResponse(const HttpResponse& response,
                                  bool keep_alive);

/// The status line and headers of SerializeHttpResponse, through the
/// blank line — what the server sends ahead of the body, which then
/// goes out from its own buffer (WriteAll's second part).
std::string SerializeHttpResponseHead(const HttpResponse& response,
                                      bool keep_alive);

/// The size line of one chunk of a chunked-transfer body (hex size +
/// CRLF); the chunk's data and its closing CRLF follow it.
std::string ChunkHead(size_t size);

/// The terminating zero-chunk ("0\r\n\r\n").
std::string_view FinalChunk();

/// Writes `first` then `second` to socket `fd` with sendmsg over two
/// iovecs, so a head and a large body leave without being concatenated.
/// Retries on EINTR and partial writes. MSG_NOSIGNAL: a peer that
/// closed mid-response yields EPIPE, not a process-killing SIGPIPE.
/// False on any other error, including an expired SO_SNDTIMEO (EAGAIN).
bool WriteAll(int fd, std::string_view first, std::string_view second = {});

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
