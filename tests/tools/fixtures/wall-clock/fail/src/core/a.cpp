#include <chrono>

const char* kUsage = R"(usage: now [--label "name"])";
double seconds_now() {
  const auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}
