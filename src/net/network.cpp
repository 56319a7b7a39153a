#include "net/network.h"

#include <algorithm>
#include <stdexcept>

#include "obs/prof.h"
#include "util/log.h"

namespace triad::net {
namespace {

std::uint64_t link_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

}  // namespace

Network::Network(sim::Simulation& sim,
                 std::unique_ptr<DelayModel> default_delay)
    : sim_(sim), rng_(sim.rng().fork("network")),
      default_delay_(std::move(default_delay)) {
  if (!default_delay_) {
    throw std::invalid_argument("Network: null default delay model");
  }
}

Network::~Network() {
  if (obs_registry_ != nullptr) obs_registry_->unregister(this);
}

void Network::bind_obs(obs::Registry* registry, obs::TraceSink* trace) {
  if (obs_registry_ != nullptr) obs_registry_->unregister(this);
  obs_registry_ = registry;
  trace_ = trace;
  if (registry == nullptr) {
    delivery_delay_ = {};
    return;
  }
  const auto count = [this](const std::uint64_t NetworkStats::* field,
                            const char* name, const char* help) {
    obs_registry_->set_help(name, help);
    obs_registry_->counter_fn(this, name, {}, [this, field] {
      return static_cast<double>(stats_.*field);
    });
  };
  count(&NetworkStats::sent, "triad_net_packets_sent_total",
        "Datagrams handed to Network::send");
  count(&NetworkStats::delivered, "triad_net_packets_delivered_total",
        "Datagrams that reached a receive handler");
  count(&NetworkStats::dropped_by_loss, "triad_net_dropped_loss_total",
        "Datagrams dropped by random loss");
  count(&NetworkStats::dropped_by_middlebox,
        "triad_net_dropped_middlebox_total",
        "Datagrams dropped by a middlebox (attacker)");
  count(&NetworkStats::dropped_no_receiver,
        "triad_net_dropped_no_receiver_total",
        "Datagrams whose destination had no handler attached");
  count(&NetworkStats::bytes_sent, "triad_net_bytes_sent_total",
        "Payload bytes handed to Network::send");
  count(&NetworkStats::bytes_delivered, "triad_net_bytes_delivered_total",
        "Payload bytes that reached a receive handler");
  registry->set_help("triad_net_delivery_delay_seconds",
                     "Wire delay of delivered datagrams");
  delivery_delay_ = registry->histogram(
      "triad_net_delivery_delay_seconds",
      {0.0001, 0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0});
}

void Network::trace_packet(obs::TraceEventType type, const Packet& packet,
                           std::int64_t b) const {
  obs::TraceEvent event;
  event.at = sim_.now();
  event.type = type;
  if (type == obs::TraceEventType::kPacketDeliver) {
    event.node = packet.dst;
    event.peer = packet.src;
  } else {
    event.node = packet.src;
    event.peer = packet.dst;
  }
  event.a = static_cast<std::int64_t>(packet.id);
  event.b = b;
  trace_->emit(event);
}

void Network::attach(NodeId addr, Handler handler) {
  if (!handler) throw std::invalid_argument("Network::attach: null handler");
  handlers_[addr] = std::move(handler);
}

void Network::detach(NodeId addr) { handlers_.erase(addr); }

void Network::set_link_delay(NodeId src, NodeId dst,
                             std::unique_ptr<DelayModel> model) {
  if (!model) throw std::invalid_argument("Network: null link delay model");
  link_delays_[link_key(src, dst)] = std::move(model);
}

void Network::set_loss_probability(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Network: loss probability out of [0,1]");
  }
  loss_probability_ = p;
}

void Network::add_middlebox(Middlebox* box) {
  if (box == nullptr) throw std::invalid_argument("Network: null middlebox");
  middleboxes_.push_back(box);
}

void Network::remove_middlebox(Middlebox* box) {
  middleboxes_.erase(
      std::remove(middleboxes_.begin(), middleboxes_.end(), box),
      middleboxes_.end());
}

DelayModel& Network::model_for(NodeId src, NodeId dst) {
  const auto it = link_delays_.find(link_key(src, dst));
  return it != link_delays_.end() ? *it->second : *default_delay_;
}

void Network::send(NodeId src, NodeId dst, BytesView payload) {
  PROF_SCOPE("net/send");
  ++stats_.sent;
  stats_.bytes_sent += payload.size();
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  }
  Packet& packet = in_flight_[slot];
  packet.src = src;
  packet.dst = dst;
  packet.payload.assign(payload.begin(), payload.end());
  packet.sent_at = sim_.now();
  packet.id = next_packet_id_++;
  if (trace_ != nullptr) {
    trace_packet(obs::TraceEventType::kPacketSend, packet,
                 static_cast<std::int64_t>(packet.payload.size()));
  }

  if (loss_probability_ > 0.0 && rng_.chance(loss_probability_)) {
    ++stats_.dropped_by_loss;
    if (trace_ != nullptr) {
      trace_packet(obs::TraceEventType::kPacketDrop, packet, 0);
    }
    free_slots_.push_back(slot);
    return;
  }

  // Middleboxes do not send (see Middlebox::on_packet), so `packet`
  // stays a valid reference into the slab throughout.
  Duration delay = model_for(src, dst).sample(rng_);
  for (Middlebox* box : middleboxes_) {
    const Middlebox::Action action = box->on_packet(packet, sim_.now());
    if (action.drop) {
      ++stats_.dropped_by_middlebox;
      if (trace_ != nullptr) {
        trace_packet(obs::TraceEventType::kPacketDrop, packet, 1);
      }
      TRIAD_LOG_DEBUG("triad.net") << "packet " << packet.id << " " << src << "->"
                             << dst << " dropped by middlebox";
      free_slots_.push_back(slot);
      return;
    }
    if (action.extra_delay < 0) {
      free_slots_.push_back(slot);
      throw std::logic_error("Middlebox returned negative extra delay");
    }
    delay += action.extra_delay;
  }
  sim_.schedule_after(delay, [this, slot] { deliver(slot); });
}

void Network::release(std::uint32_t slot, Bytes payload) {
  in_flight_[slot].payload = std::move(payload);
  free_slots_.push_back(slot);
}

void Network::deliver(std::uint32_t slot) {
  PROF_SCOPE("net/deliver");
  // The handler sees a local copy whose payload buffer is moved out of
  // the slot (no allocation): the handler may send, and so grow the slab
  // and move its elements. The slot stays taken until the handler
  // returns, then gets its buffer back for the next send to reuse.
  Packet packet = std::move(in_flight_[slot]);
  const auto it = handlers_.find(packet.dst);
  if (it == handlers_.end()) {
    ++stats_.dropped_no_receiver;
    if (trace_ != nullptr) {
      trace_packet(obs::TraceEventType::kPacketDrop, packet, 2);
    }
    release(slot, std::move(packet.payload));
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += packet.payload.size();
  delivery_delay_.observe(to_seconds(sim_.now() - packet.sent_at));
  if (trace_ != nullptr) {
    trace_packet(obs::TraceEventType::kPacketDeliver, packet,
                 static_cast<std::int64_t>(packet.payload.size()));
  }
  it->second(packet);
  release(slot, std::move(packet.payload));
}

}  // namespace triad::net
