// Remote client: attests the server, establishes a session, and issues
// operations. Supports synchronous calls and pipelining (used by the load
// generator to simulate many concurrent users per connection, §6.4).
#ifndef SHIELDSTORE_SRC_NET_CLIENT_H_
#define SHIELDSTORE_SRC_NET_CLIENT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/net/channel.h"
#include "src/net/protocol.h"
#include "src/obs/snapshot.h"

namespace shield::net {

// Robustness knobs: a dead or hung server must yield a timely, typed
// kIoError instead of blocking the caller forever.
struct ClientOptions {
  int connect_attempts = 3;     // total tries; kIoError failures retry
  int connect_backoff_ms = 50;  // doubles after each failed attempt
  int connect_timeout_ms = 2000;
  int send_timeout_ms = 5000;  // SO_SNDTIMEO
  int recv_timeout_ms = 5000;  // SO_RCVTIMEO; covers handshake + responses

  // A kPartitionRecovering response means the key's partition is being
  // healed server-side and the operation was NOT applied — always safe to
  // retry, even Increment. The convenience wrappers retry up to this many
  // times with fixed backoff before surfacing the code to the caller.
  int recovering_retries = 0;
  int recovering_backoff_ms = 20;

  // Trace propagation: sampled ops carry the 16-byte trace-context frame
  // extension (protocol.h). Off by default, and unsampled ops never carry
  // it, so their frames are byte-identical either way.
  bool enable_tracing = false;
};

class Client {
 public:
  // `expected` is the enclave measurement the client trusts (obtained from
  // the service operator out of band, like a release's published MRENCLAVE).
  Client(const sgx::AttestationAuthority& authority, const sgx::Measurement& expected,
         bool encrypt = true, const ClientOptions& options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connects to 127.0.0.1:port and runs the attestation handshake. Socket-
  // level failures (refused, timed out) are retried up to connect_attempts
  // with exponential backoff; attestation failures are never retried.
  Status Connect(uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }
  // Last port Connect()/Reconnect() was asked to reach (0 = never connected).
  uint16_t port() const { return port_; }

  // Re-establishes the connection AND the session: tears down the old socket
  // and key material, then runs the full attestation handshake against
  // `port` (0 = the previous address) with a fresh retry/backoff budget.
  // This is the failover path: when the router redirects a client to a
  // promoted standby, the old session keys are useless — the new node never
  // saw that handshake — so a plain retry against the old address (or a raw
  // socket reconnect keeping the stale SessionCrypto) can only fail.
  Status Reconnect(uint16_t port = 0);

  // Synchronous request/response.
  Result<Response> Execute(const Request& request);

  // Batched request/response: all `ops` travel in ONE kBatch frame, are
  // sealed/opened once, and cross the enclave boundary once. Returns one
  // Response per op, in request order. A batch-level failure (I/O, session,
  // or the server rejecting the whole frame as malformed) is the Result's
  // status; per-op failures live in each Response::status. No cross-op
  // atomicity — a failed op does not undo earlier ops in the batch.
  Result<std::vector<Response>> ExecuteBatch(const std::vector<Request>& ops);

  // Multi-key conveniences over ExecuteBatch.
  Result<std::vector<Response>> MGet(const std::vector<std::string>& keys);
  Status MSet(const std::vector<std::pair<std::string, std::string>>& pairs);

  // Fetches the server's live metrics snapshot over the kStats verb: per-verb
  // op counts, latency/stage histograms, EPC + crossing counters, WAL and
  // self-heal state. A malformed snapshot frame decodes to kProtocolError.
  Result<obs::MetricsSnapshot> Stats();

  // Drains the server's span buffer over the kTraceDump verb. Destructive:
  // each span is returned exactly once across all callers.
  Result<std::vector<obs::SpanRecord>> TraceDump();

  // Pipelined interface: up to `depth` Sends may be outstanding before the
  // matching Receives (responses arrive in order).
  Status SendRequest(const Request& request);
  Result<Response> ReceiveResponse();

  // Convenience wrappers.
  Status Set(std::string_view key, std::string_view value);
  Result<std::string> Get(std::string_view key);
  Status Delete(std::string_view key);
  Status Append(std::string_view key, std::string_view suffix);
  Result<int64_t> Increment(std::string_view key, int64_t delta);

 private:
  // One connection attempt: socket + timed connect + socket timeouts.
  Status ConnectSocket(uint16_t port);
  // Execute + retry-on-recovering loop (used by the convenience wrappers).
  Result<Response> ExecuteRetrying(const Request& request);

  const sgx::AttestationAuthority& authority_;
  sgx::Measurement expected_;
  bool encrypt_;
  ClientOptions options_;
  int fd_ = -1;
  uint16_t port_ = 0;
  std::unique_ptr<SessionCrypto> session_;
};

}  // namespace shield::net

#endif  // SHIELDSTORE_SRC_NET_CLIENT_H_
