#include "cluster/worker.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <vector>

#include "cluster/wire.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "exec/exec.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

namespace gp::cluster {

namespace {

/// Per-direction chaos seeds: slot s's router→worker sends draw from stream
/// 2s, worker→router replies from 2s+1, so the two directions of one link
/// (and different links) corrupt independently yet reproducibly.
LinkFaultConfig direction_faults(LinkFaultConfig base, std::size_t slot, bool reply_side) {
  base.seed = exec::child_seed(base.seed, 2 * static_cast<std::uint64_t>(slot) +
                                              (reply_side ? 1 : 0));
  return base;
}

/// Executes one decoded request against the worker's server. Handler
/// exceptions become typed kError replies — the worker never dies on a
/// request, only on a vanished router.
Message handle_request(serve::Server& server, const Message& request) {
  Message reply;
  reply.seq = request.seq;
  try {
    switch (request.type) {
      case MsgType::kTick: {
        const TickRequest tick = decode_tick_request(request.payload);
        if (tick.op != TickOp::kPump && !tick.checkpoints.empty()) {
          // Only a pump leaves the ingress queues empty, so only a post-pump
          // export captures every frame the router has sent.
          throw Error("tick: checkpoints are only taken after a pump");
        }
        // Decode every row before pushing any, so a malformed batch is
        // rejected whole instead of half-applied.
        std::vector<WireFrame> frames;
        frames.reserve(tick.frames.size());
        for (const std::string& row : tick.frames) frames.push_back(decode_wire_frame(row));
        TickReply out;
        out.verdicts.reserve(frames.size());
        for (const WireFrame& wf : frames) {
          out.verdicts.push_back(server.push_frame(wf.session_id, wf.frame));
        }
        if (tick.op == TickOp::kPump) out.results = server.pump();
        if (tick.op == TickOp::kDrain) out.results = server.drain();
        for (const std::uint64_t session_id : tick.checkpoints) {
          // Unknown session → empty blob: the router keeps its replay buffer
          // instead of treating a never-delivered session as an error.
          std::ostringstream blob(std::ios::binary);
          std::string state;
          if (server.export_session(session_id, blob)) state = blob.str();
          out.states.emplace_back(session_id, std::move(state));
        }
        reply.type = MsgType::kTickReply;
        reply.payload = encode_tick_reply(out);
        break;
      }
      case MsgType::kRestore: {
        const auto [session_id, blob] = decode_state(request.payload);
        std::istringstream in(blob, std::ios::binary);
        server.restore_session(session_id, in);
        reply.type = MsgType::kAck;
        reply.payload = encode_ack(0);
        break;
      }
      case MsgType::kHeartbeat:
        reply.type = MsgType::kAck;
        reply.payload = request.payload;  // echo the nonce back
        break;
      case MsgType::kShutdown:
        reply.type = MsgType::kAck;
        reply.payload = encode_ack(0);
        break;
      default:
        reply.type = MsgType::kError;
        reply.payload = encode_text(std::string("unexpected request type: ") +
                                    msg_type_name(request.type));
        break;
    }
  } catch (const Error& e) {
    reply.type = MsgType::kError;
    reply.payload = encode_text(e.what());
  }
  return reply;
}

}  // namespace

int worker_main(int fd, const ClusterConfig& config, std::size_t slot) {
  // Fork safety: the parent's ExecContext pool threads do not exist in this
  // process. SerialScope forces every context to run inline for the
  // worker's whole life, so nothing waits on a thread that was never
  // forked; parallelism comes from the workers computing side by side.
  exec::SerialScope serial;

  serve::ServeConfig sc = config.serve;
  // Every pump flushes the batcher, so a checkpoint exported right after
  // the pump of the same tick captures the whole stream.
  sc.batch_wait_us = 0;

  serve::ModelRegistry registry(sc.system);
  if (!config.model_path.empty() &&
      !registry.publish_file(config.model_path, sc.quant).has_value()) {
    log_warn() << "cluster worker " << slot << ": model publish failed for '"
               << config.model_path << "'; serving typed no-model abstentions";
  }
  serve::Server server(sc, registry);

  Channel channel(fd, direction_faults(config.link_faults, slot, /*reply_side=*/true));
  std::uint64_t last_seq = 0;
  std::string last_reply_envelope;
  bool have_reply = false;
  std::string bytes;
  for (;;) {
    bool got = false;
    try {
      got = channel.recv_message(bytes, /*deadline_ms=*/0);
    } catch (const Error&) {
      return 1;  // router died mid-message
    }
    if (!got) return 0;  // clean EOF: the router closed the link

    Message request;
    try {
      request = decode_message(bytes);
    } catch (const SerializationError& e) {
      // Corrupt transmission: typed rejection, no state change. seq 0 — the
      // seq inside corrupt bytes is untrusted — so it can never collide
      // with a real request (link seqs start at 1).
      Message reject;
      reject.type = MsgType::kCorrupt;
      reject.seq = 0;
      reject.payload = encode_text(e.what());
      try {
        channel.send_message(encode_message(reject));
      } catch (const Error&) {
        return 1;
      }
      continue;
    }

    try {
      if (have_reply && request.seq == last_seq) {
        // Duplicate of the last executed request (the router re-sent after
        // a lost or corrupt reply): resend the cached reply, execute
        // nothing. Re-encoding would consume a fresh chaos draw and is not
        // needed — send_message corrupts per send either way.
        channel.send_message(last_reply_envelope);
        continue;
      }
      const Message reply = handle_request(server, request);
      last_seq = request.seq;
      last_reply_envelope = encode_message(reply);
      have_reply = true;
      channel.send_message(last_reply_envelope);
      if (request.type == MsgType::kShutdown) return 0;
    } catch (const Error&) {
      return 1;  // send failed: router gone
    }
  }
}

WorkerHandle spawn_worker(const ClusterConfig& config, std::size_t slot,
                          const std::vector<int>& close_in_child) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw Error(std::string("cluster: socketpair failed: ") + std::strerror(errno));
  }
  // Flush stdio so buffered bytes are not emitted twice (once per process).
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw Error(std::string("cluster: fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: drop the router end plus every *other* router-side fd we
    // inherited (a sibling's link must not stay open in this process, or
    // that sibling would never see EOF when the router closes it).
    ::close(fds[0]);
    for (const int other : close_in_child) {
      if (other >= 0 && other != fds[1]) ::close(other);
    }
    int code = 1;
    try {
      code = worker_main(fds[1], config, slot);
    } catch (...) {
      code = 1;
    }
    // _exit: no atexit handlers, no static destructors, no leak sweep — the
    // parent owns the process-wide reporting.
    ::_exit(code);
  }
  ::close(fds[1]);
  WorkerHandle handle;
  handle.pid = pid;
  handle.slot = slot;
  handle.channel =
      Channel(fds[0], direction_faults(config.link_faults, slot, /*reply_side=*/false));
  return handle;
}

}  // namespace gp::cluster
