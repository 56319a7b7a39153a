// timed::ServeWorker: the sealed-timestamp hot path. A triad_lint R4
// hot-path file: after warm-up a served request allocates nothing, since
// every buffer it touches is owned by the worker and reused.

#include <variant>

#include "net/wire.h"
#include "obs/prof.h"
#include "timed/service.h"
#include "triad/messages.h"

namespace triad::timed {

ServeWorker::ServeWorker(runtime::SockAddr serve, NodeId node_id,
                         const crypto::Keyring& keyring,
                         const SnapshotBoard& board)
    : socket_(runtime::UdpSocket::bind(serve, /*reuse_port=*/true,
                                       &bind_error_)),
      channel_(node_id, keyring),
      board_(board) {
  if (socket_.valid()) {
    loop_.add_fd(socket_.fd(), [this] { on_readable(); });
  }
}

void ServeWorker::start() {
  thread_ = std::thread([this] { run(); });
}

void ServeWorker::stop() { loop_.stop(); }

void ServeWorker::join() {
  if (thread_.joinable()) thread_.join();
}

void ServeWorker::run() { loop_.run(scheduler_, clock_); }

void ServeWorker::on_readable() {
  PROF_SCOPE("timed/serve_batch");
  std::array<runtime::RecvView, runtime::kRecvBatch> views;
  for (int round = 0; round < 4; ++round) {
    const std::size_t n = socket_.recv_batch(views);
    if (n == 0) return;
    // One snapshot per batch: every request in the batch is answered
    // from the same extrapolation anchor, then clamped monotone.
    const ClockSnapshot snap = board_.read();
    const std::uint64_t now_ns = runtime::MonotonicTimer::now_ns();
    SimTime now = snap.time;
    if (snap.mono_ns != 0 && now_ns > snap.mono_ns) {
      now += static_cast<SimTime>(now_ns - snap.mono_ns);
    }
    // The telemetry plane's entire hot-path cost: one relaxed load, and
    // a queue-depth sample only while somebody is actually scraping.
    // The first unscraped batch after a sampled one stores a 0 so the
    // gauge never reports a stale depth as live.
    if (scrape_signal_ != nullptr &&
        scrape_signal_->load(std::memory_order_relaxed) != 0) {
      stats_.batch_depth.store(n, std::memory_order_relaxed);
      batch_depth_sampled_ = true;
    } else if (batch_depth_sampled_) {
      stats_.batch_depth.store(0, std::memory_order_relaxed);
      batch_depth_sampled_ = false;
    }
    std::size_t replies = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto frame = net::wire::decode_frame(views[i].data);
      if (!frame.has_value()) {
        stats_.decode_errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const auto sender = channel_.open_into(frame->payload, plaintext_);
      if (!sender.has_value() || *sender != frame->src) {
        stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const auto message = proto::decode(plaintext_);
      const auto* request =
          message.has_value()
              ? std::get_if<proto::PeerTimeRequest>(&*message)
              : nullptr;
      if (request == nullptr) {
        stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      stats_.requests.fetch_add(1, std::memory_order_relaxed);

      proto::PeerTimeResponse response;
      response.request_id = request->request_id;
      response.tainted = !snap.available;
      if (snap.available) {
        if (now <= last_served_) now = last_served_ + 1;
        last_served_ = now;
        response.timestamp = now;
        response.error_bound = snap.error_bound;
      } else {
        stats_.unavailable.fetch_add(1, std::memory_order_relaxed);
      }
      proto::encode_into(response, encoded_);
      channel_.seal_into(frame->src, encoded_, sealed_);
      Bytes& reply = reply_slots_[replies];
      net::wire::encode_frame_into(frame->dst, frame->src, sealed_, reply);
      sends_[replies] = runtime::SendView{views[i].from, reply};
      ++replies;
    }
    flush(replies);
    if (n < runtime::kRecvBatch) return;
  }
}

void ServeWorker::flush(std::size_t count) {
  // A datagram the kernel refuses is dropped like a lost packet: one
  // send failure, then the rest of the batch goes out.
  std::size_t next = 0;
  while (next < count) {
    const std::size_t sent =
        socket_.send_batch(sends_.data() + next, count - next);
    stats_.responses.fetch_add(sent, std::memory_order_relaxed);
    next += sent;
    if (next < count) {
      stats_.send_failures.fetch_add(1, std::memory_order_relaxed);
      ++next;
    }
  }
}

}  // namespace triad::timed
