// gp::cluster wire protocol (DESIGN.md §12).
//
// Every byte that crosses a router↔worker link is one *envelope*: the gp
// binary header ("GPWM" magic + version byte via BinaryWriter), a message
// type, a per-link sequence number, an FNV-1a-64 checksum and the
// length-prefixed type-specific payload. The checksum covers payload bytes
// *and* the type/seq header words, so a bit flip anywhere downstream of the
// magic is detected — a corrupt envelope decodes to a typed
// SerializationError (rejected-not-crashed), never to a silently wrong
// message. Payloads reuse the same hardened BinaryReader discipline with
// their own inner tags ("GPWT" tick requests, "GPWU" tick replies, "GPWF"
// frame rows, "GPWR" results, "GPWK" control), so feeding a frame payload to
// the results decoder is a typed error too.
//
// Error taxonomy at this layer:
//   SerializationError — these exact bytes are malformed; re-decoding them
//     can never help (the never-retry contract of faults::with_retries).
//   TransportError     — the *link* failed (peer gone, corrupt transmission,
//     short read). Retryable: a retransmission produces fresh bytes.
//   TimeoutError       — a deadline-bounded read ran out of budget.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "pointcloud/point.hpp"
#include "serve/config.hpp"

namespace gp::cluster {

/// A link-level failure (peer died, transmission corrupted, short read).
/// Deliberately distinct from SerializationError: the bytes on the wire are
/// transient, so the router's retry policy re-sends instead of giving up.
class TransportError : public Error {
 public:
  explicit TransportError(const std::string& what) : Error(what) {}
};

/// Message vocabulary. Requests flow router→worker, replies worker→router.
enum class MsgType : std::uint8_t {
  // requests
  kTick = 0,     ///< TickRequest payload; reply kTickReply
  kRestore,      ///< state payload; reply kAck(0)
  kHeartbeat,    ///< u64 nonce payload; reply kAck echoes it back
  kShutdown,     ///< empty payload; reply kAck(0), then the worker exits
  // replies
  kAck,          ///< u32 code payload (ok / heartbeat nonce)
  kTickReply,    ///< TickReply payload
  kCorrupt,      ///< text payload: the request failed its envelope decode
  kError,        ///< text payload: the handler threw (protocol-level fault)
};
const char* msg_type_name(MsgType type);

/// One decoded envelope.
struct Message {
  MsgType type = MsgType::kError;
  std::uint64_t seq = 0;  ///< per-link request sequence (replies echo it)
  std::string payload;
};

/// Encodes the envelope: GPWM header | type | seq | checksum | payload.
std::string encode_message(const Message& msg);
/// Decodes and validates an envelope (magic, version, known type, checksum,
/// hardened payload length). Throws SerializationError on any mismatch.
Message decode_message(const std::string& bytes);

// ------------------------------------------------------------ payloads

/// One radar frame addressed to a session (one row of a TickRequest).
struct WireFrame {
  std::uint64_t session_id = 0;
  FrameCloud frame;
};

std::string encode_wire_frame(std::uint64_t session_id, const FrameView& frame);
/// Hardened decode (inner tag "GPWF", validated point count). Throws
/// SerializationError on malformed input.
WireFrame decode_wire_frame(const std::string& payload);

/// A batch of classified segments (WireResult rows are serve::ServeResult —
/// the cluster answers with the exact serve vocabulary); nested in TickReply.
std::string encode_wire_results(const std::vector<serve::ServeResult>& results);
std::vector<serve::ServeResult> decode_wire_results(const std::string& payload);

/// What a worker does between pushing a tick's frames and exporting state.
enum class TickOp : std::uint8_t {
  kFramesOnly = 0,  ///< push only: a full outbound batch or a failover replay
  kPump,            ///< push, Server::pump(), export the checkpoint sessions
  kDrain,           ///< push, Server::drain() (end-of-stream flush)
};

/// The kTick payload (inner tag "GPWT"): one worker's whole share of a
/// router tick. The worker pushes `frames` in order, runs `op`, then exports
/// the `checkpoints` sessions — all under the envelope's single seq, so the
/// batch is the at-most-once unit.
struct TickRequest {
  TickOp op = TickOp::kPump;
  std::vector<std::string> frames;         ///< encode_wire_frame rows
  std::vector<std::uint64_t> checkpoints;  ///< sessions to export (kPump only)
};

/// The kTickReply payload (inner tag "GPWU"): one admission verdict per
/// request frame (same order), the op's results, and one state blob per
/// requested checkpoint (same order; an empty blob = unknown session).
struct TickReply {
  std::vector<serve::Admission> verdicts;
  std::vector<serve::ServeResult> results;
  std::vector<std::pair<std::uint64_t, std::string>> states;
};

std::string encode_tick_request(const TickRequest& request);
/// Hardened decode: validates the op, every row count and the checkpoint
/// count; rows stay encoded (decode_wire_frame each). Throws
/// SerializationError on malformed input.
TickRequest decode_tick_request(const std::string& payload);
std::string encode_tick_reply(const TickReply& reply);
/// Hardened decode: validates every verdict and the nested results batch.
TickReply decode_tick_reply(const std::string& payload);

/// Control payloads (inner tag "GPWK"): a bare code/nonce/session id, a
/// (session, blob) state pair, and free text for kCorrupt/kError.
std::string encode_ack(std::uint32_t code);
std::uint32_t decode_ack(const std::string& payload);
std::string encode_u64(std::uint64_t v);
std::uint64_t decode_u64(const std::string& payload);
std::string encode_state(std::uint64_t session_id, const std::string& blob);
std::pair<std::uint64_t, std::string> decode_state(const std::string& payload);
std::string encode_text(const std::string& text);
std::string decode_text(const std::string& payload);

}  // namespace gp::cluster
