#include "reference.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

double ReferenceSeconds() {
  struct Event {
    uint64_t when;
    uint32_t node;
    bool operator>(const Event& other) const { return when > other.when; }
  };
  constexpr uint32_t kNodes = 1024;
  constexpr uint64_t kKeys = 200'000;
  constexpr size_t kMaxState = 150'000;
  constexpr int kEvents = 600'000;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::vector<std::function<void(uint64_t)>> handlers;
  std::unordered_map<uint64_t, uint64_t> state;
  uint64_t lcg = 12345;
  uint64_t sum = 0;
  for (uint32_t node = 0; node < kNodes; ++node) {
    handlers.push_back([&, node](uint64_t when) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      uint64_t& value = state[(lcg >> 20) % kKeys];
      value += when;
      sum += value;
      if (state.size() > kMaxState) {
        state.erase(state.begin());
      }
      queue.push({when + 1 + (lcg >> 58), static_cast<uint32_t>((node + (lcg >> 40)) % kNodes)});
    });
    queue.push({node, node});
  }
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    Event event = queue.top();
    queue.pop();
    handlers[event.node](event.when);
  }
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // Keeps the loop's work observable so it cannot be optimized away.
  volatile uint64_t sink = sum;
  (void)sink;
  return seconds;
}

}  // namespace perfbench
