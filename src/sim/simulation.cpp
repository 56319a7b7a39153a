#include "sim/simulation.h"

#include <stdexcept>
#include <utility>

#include "obs/prof.h"

namespace triad::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() {
  if (obs_registry_ != nullptr) obs_registry_->unregister(this);
}

void Simulation::bind_obs(obs::Registry* registry) {
  if (obs_registry_ != nullptr) obs_registry_->unregister(this);
  obs_registry_ = registry;
  if (registry == nullptr) {
    obs_scheduled_ = {};
    obs_fired_ = {};
    obs_cancelled_ = {};
    return;
  }
  registry->set_help("triad_sim_events_scheduled_total",
                     "Events accepted by schedule_at/schedule_after");
  registry->set_help("triad_sim_events_fired_total",
                     "Events whose handler actually ran");
  registry->set_help("triad_sim_events_cancelled_total",
                     "Pending events cancelled before firing");
  registry->set_help("triad_sim_queue_depth",
                     "Currently pending (non-cancelled) events");
  obs_scheduled_ = registry->counter("triad_sim_events_scheduled_total");
  obs_fired_ = registry->counter("triad_sim_events_fired_total");
  obs_cancelled_ = registry->counter("triad_sim_events_cancelled_total");
  registry->gauge_fn(this, "triad_sim_queue_depth", {}, [this] {
    return static_cast<double>(queue_.size());
  });
}

EventId Simulation::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) {
    throw std::logic_error("Simulation::schedule_at: time is in the past");
  }
  if (!fn) {
    throw std::invalid_argument("Simulation::schedule_at: empty handler");
  }
  obs_scheduled_.inc();
  return queue_.push(t, std::move(fn));
}

EventId Simulation::schedule_after(Duration delay, std::function<void()> fn) {
  if (delay < 0) {
    throw std::logic_error("Simulation::schedule_after: negative delay");
  }
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulation::cancel(EventId id) {
  if (!queue_.cancel(id)) return false;
  obs_cancelled_.inc();
  return true;
}

bool Simulation::step() {
  PROF_SCOPE("sim/dispatch");
  // The handler is moved out and its slot recycled before it runs, so
  // it may schedule and cancel freely, at the current time too.
  std::function<void()> fn;
  if (!queue_.pop_due(kSimTimeMax, &now_, &fn)) return false;
  ++events_executed_;
  obs_fired_.inc();
  fn();
  return true;
}

void Simulation::run_until(SimTime t) {
  if (t < now_) {
    throw std::logic_error("Simulation::run_until: time is in the past");
  }
  // Peek before step(): the profiler counts one sim/dispatch scope per
  // executed event, and step() opens its scope before popping.
  for (auto next = queue_.next_deadline(); next && *next <= t;
       next = queue_.next_deadline()) {
    step();
  }
  now_ = t;
}

void Simulation::run_for(Duration d) {
  if (d < 0) {
    throw std::logic_error("Simulation::run_for: negative duration");
  }
  run_until(now_ + d);
}

void Simulation::run() {
  while (step()) {
  }
}

}  // namespace triad::sim
