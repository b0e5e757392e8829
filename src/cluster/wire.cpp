#include "cluster/wire.hpp"

#include <sstream>

#include "common/fnv.hpp"
#include "common/serialize.hpp"

namespace gp::cluster {

namespace {

constexpr const char* kEnvelopeTag = "GPWM";
constexpr const char* kTickTag = "GPWT";
constexpr const char* kTickReplyTag = "GPWU";
constexpr const char* kFrameTag = "GPWF";
constexpr const char* kResultsTag = "GPWR";
constexpr const char* kControlTag = "GPWK";

/// Wire footprint floor of one RadarPoint (5 f64 + 1 i32), used to validate
/// untrusted point counts before any allocation.
constexpr std::size_t kMinPointBytes = 5 * sizeof(double) + sizeof(std::int32_t);
/// Wire footprint floor of one WireResult row.
constexpr std::size_t kMinResultBytes = 3 * sizeof(std::uint64_t);
/// Wire footprint floor of a length-prefixed string (frame row, state blob).
constexpr std::size_t kMinStringBytes = sizeof(std::uint32_t);

/// The envelope checksum covers the payload bytes and the type/seq header
/// words: a flip in *any* of them must fail the decode, or a damaged seq
/// could defeat the worker's duplicate-suppression and double-execute a
/// request.
std::uint64_t envelope_checksum(MsgType type, std::uint64_t seq,
                                const std::string& payload) {
  std::uint64_t h = fnv::hash_string(payload);
  h = fnv::accumulate_value(h, static_cast<std::uint8_t>(type));
  h = fnv::accumulate_value(h, seq);
  return h;
}

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kTick: return "tick";
    case MsgType::kRestore: return "restore";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kAck: return "ack";
    case MsgType::kTickReply: return "tick_reply";
    case MsgType::kCorrupt: return "corrupt";
    case MsgType::kError: return "error";
  }
  return "?";
}

std::string encode_message(const Message& msg) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kEnvelopeTag);
  w.write_u8(static_cast<std::uint8_t>(msg.type));
  w.write_u64(msg.seq);
  w.write_u64(envelope_checksum(msg.type, msg.seq, msg.payload));
  w.write_string(msg.payload);
  return out.str();
}

Message decode_message(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  BinaryReader r(in, kEnvelopeTag);
  const std::uint8_t raw_type = r.read_u8();
  if (raw_type > static_cast<std::uint8_t>(MsgType::kError)) {
    throw SerializationError("wire envelope: unknown message type " +
                             std::to_string(raw_type));
  }
  Message msg;
  msg.type = static_cast<MsgType>(raw_type);
  msg.seq = r.read_u64();
  const std::uint64_t checksum = r.read_u64();
  msg.payload = r.read_string();
  if (checksum != envelope_checksum(msg.type, msg.seq, msg.payload)) {
    throw SerializationError("wire envelope: checksum mismatch (corrupt transmission)");
  }
  return msg;
}

std::string encode_wire_frame(std::uint64_t session_id, const FrameView& frame) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kFrameTag);
  w.write_u64(session_id);
  w.write_i32(frame.frame_index);
  w.write_f64(frame.timestamp);
  w.write_u64(frame.points.size());
  for (const RadarPoint& p : frame.points) {
    w.write_f64(p.position.x);
    w.write_f64(p.position.y);
    w.write_f64(p.position.z);
    w.write_f64(p.velocity);
    w.write_f64(p.snr_db);
    w.write_i32(p.frame);
  }
  return out.str();
}

WireFrame decode_wire_frame(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  BinaryReader r(in, kFrameTag);
  WireFrame wf;
  wf.session_id = r.read_u64();
  wf.frame.frame_index = r.read_i32();
  wf.frame.timestamp = r.read_f64();
  const std::uint64_t n = r.read_count(kMinPointBytes, "wire frame points");
  wf.frame.points.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    RadarPoint p;
    p.position.x = r.read_f64();
    p.position.y = r.read_f64();
    p.position.z = r.read_f64();
    p.velocity = r.read_f64();
    p.snr_db = r.read_f64();
    p.frame = r.read_i32();
    wf.frame.points.push_back(p);
  }
  return wf;
}

std::string encode_wire_results(const std::vector<serve::ServeResult>& results) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kResultsTag);
  w.write_u64(results.size());
  for (const serve::ServeResult& res : results) {
    w.write_u64(res.session_id);
    w.write_u64(res.segment_ordinal);
    w.write_u64(res.request_id);
    w.write_i32(res.gesture);
    w.write_i32(res.user);
    w.write_u8(res.abstained ? 1 : 0);
    w.write_u8(res.quality_rejected ? 1 : 0);
    w.write_f64(res.gesture_margin);
    w.write_f64(res.user_margin);
    w.write_u64(res.model_version);
  }
  return out.str();
}

std::vector<serve::ServeResult> decode_wire_results(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  BinaryReader r(in, kResultsTag);
  const std::uint64_t n = r.read_count(kMinResultBytes, "wire results");
  std::vector<serve::ServeResult> results;
  results.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    serve::ServeResult res;
    res.session_id = r.read_u64();
    res.segment_ordinal = r.read_u64();
    res.request_id = r.read_u64();
    res.gesture = r.read_i32();
    res.user = r.read_i32();
    res.abstained = r.read_u8() != 0;
    res.quality_rejected = r.read_u8() != 0;
    res.gesture_margin = r.read_f64();
    res.user_margin = r.read_f64();
    res.model_version = r.read_u64();
    results.push_back(res);
  }
  return results;
}

std::string encode_tick_request(const TickRequest& request) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kTickTag);
  w.write_u8(static_cast<std::uint8_t>(request.op));
  w.write_u64(request.frames.size());
  for (const std::string& row : request.frames) w.write_string(row);
  w.write_u64(request.checkpoints.size());
  for (const std::uint64_t sid : request.checkpoints) w.write_u64(sid);
  return out.str();
}

TickRequest decode_tick_request(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  BinaryReader r(in, kTickTag);
  TickRequest request;
  const std::uint8_t op = r.read_u8();
  if (op > static_cast<std::uint8_t>(TickOp::kDrain)) {
    throw SerializationError("wire tick: unknown op " + std::to_string(op));
  }
  request.op = static_cast<TickOp>(op);
  const std::uint64_t frames = r.read_count(kMinStringBytes, "wire tick frames");
  request.frames.reserve(static_cast<std::size_t>(frames));
  for (std::uint64_t i = 0; i < frames; ++i) request.frames.push_back(r.read_string());
  const std::uint64_t checkpoints =
      r.read_count(sizeof(std::uint64_t), "wire tick checkpoints");
  request.checkpoints.reserve(static_cast<std::size_t>(checkpoints));
  for (std::uint64_t i = 0; i < checkpoints; ++i) request.checkpoints.push_back(r.read_u64());
  return request;
}

std::string encode_tick_reply(const TickReply& reply) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kTickReplyTag);
  w.write_u64(reply.verdicts.size());
  for (const serve::Admission v : reply.verdicts) w.write_u8(static_cast<std::uint8_t>(v));
  w.write_string(encode_wire_results(reply.results));
  w.write_u64(reply.states.size());
  for (const auto& [sid, blob] : reply.states) {
    w.write_u64(sid);
    w.write_string(blob);
  }
  return out.str();
}

TickReply decode_tick_reply(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  BinaryReader r(in, kTickReplyTag);
  TickReply reply;
  const std::uint64_t verdicts = r.read_count(1, "wire tick verdicts");
  reply.verdicts.reserve(static_cast<std::size_t>(verdicts));
  for (std::uint64_t i = 0; i < verdicts; ++i) {
    const std::uint8_t v = r.read_u8();
    if (v > static_cast<std::uint8_t>(serve::Admission::kRejectedNoWorker)) {
      throw SerializationError("wire tick reply: unknown admission verdict " +
                               std::to_string(v));
    }
    reply.verdicts.push_back(static_cast<serve::Admission>(v));
  }
  reply.results = decode_wire_results(r.read_string());
  const std::uint64_t states =
      r.read_count(sizeof(std::uint64_t) + kMinStringBytes, "wire tick states");
  reply.states.reserve(static_cast<std::size_t>(states));
  for (std::uint64_t i = 0; i < states; ++i) {
    const std::uint64_t sid = r.read_u64();
    reply.states.emplace_back(sid, r.read_string());
  }
  return reply;
}

std::string encode_ack(std::uint32_t code) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kControlTag);
  w.write_u32(code);
  return out.str();
}

std::uint32_t decode_ack(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  BinaryReader r(in, kControlTag);
  return r.read_u32();
}

std::string encode_u64(std::uint64_t v) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kControlTag);
  w.write_u64(v);
  return out.str();
}

std::uint64_t decode_u64(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  BinaryReader r(in, kControlTag);
  return r.read_u64();
}

std::string encode_state(std::uint64_t session_id, const std::string& blob) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kControlTag);
  w.write_u64(session_id);
  w.write_string(blob);
  return out.str();
}

std::pair<std::uint64_t, std::string> decode_state(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  BinaryReader r(in, kControlTag);
  const std::uint64_t session_id = r.read_u64();
  return {session_id, r.read_string()};
}

std::string encode_text(const std::string& text) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter w(out, kControlTag);
  w.write_string(text);
  return out.str();
}

std::string decode_text(const std::string& payload) {
  std::istringstream in(payload, std::ios::binary);
  BinaryReader r(in, kControlTag);
  return r.read_string();
}

}  // namespace gp::cluster
