#include "obs/trace.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <set>

#include "obs/file.h"
#include "obs/report.h"

namespace nose {
namespace obs {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Buffer of the calling thread, shared with the recorder's registry so it
/// survives the thread (pool workers die with their pool; their spans must
/// not).
thread_local std::shared_ptr<void> tls_buffer;

/// Crash-flush state. The path is leaked (a destructor racing a signal
/// handler would be worse); the flag doubles as a reentrancy guard so a
/// fault inside the flush itself falls through to the default disposition.
std::string* crash_flush_path = nullptr;
std::atomic<bool> crash_flush_armed{false};

void CrashFlushHandler(int sig) {
  if (crash_flush_armed.exchange(false, std::memory_order_acq_rel) &&
      crash_flush_path != nullptr) {
    TraceRecorder::Global().FlushPartial(*crash_flush_path);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

TraceRecorder::ThreadBuffer* TraceRecorder::CurrentBuffer() {
  if (tls_buffer == nullptr) {
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    buffer->thread_name =
        buffer->tid == 0 ? "main" : "thread-" + std::to_string(buffer->tid);
    {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(buffer);
    }
    tls_buffer = buffer;
  }
  return static_cast<ThreadBuffer*>(tls_buffer.get());
}

void TraceRecorder::Enable() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) buffer->events.clear();
  }
  epoch_ns_.store(NowNs(), std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_release);
}

void TraceRecorder::Append(TraceEvent event) {
  CurrentBuffer()->events.push_back(std::move(event));
}

void TraceRecorder::SetCurrentThreadName(std::string name) {
  CurrentBuffer()->thread_name = std::move(name);
}

std::string TraceRecorder::ToChromeJson() {
  std::lock_guard<std::mutex> lock(mu_);
  return RenderChromeJson();
}

std::string TraceRecorder::RenderChromeJson() {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out.push_back(',');
    first = false;
  };
  char buf[64];
  for (const auto& buffer : buffers_) {
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(buffer->tid);
    out += ",\"args\":{\"name\":";
    AppendJsonString(&out, buffer->thread_name);
    out += "}}";
    for (const TraceEvent& e : buffer->events) {
      comma();
      out += "{\"name\":";
      AppendJsonString(&out, e.name);
      out += ",\"cat\":";
      AppendJsonString(&out, e.category);
      out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
      out += std::to_string(buffer->tid);
      // Microsecond timestamps with sub-microsecond spans preserved.
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f",
                    std::max<int64_t>(e.start_ns, 0) / 1e3, e.dur_ns / 1e3);
      out += buf;
      if (!e.args.empty()) {
        out += ",\"args\":{";
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) out.push_back(',');
          AppendJsonString(&out, e.args[i].first);
          out.push_back(':');
          AppendJsonString(&out, e.args[i].second);
        }
        out.push_back('}');
      }
      out.push_back('}');
    }
  }
  out += "]}";
  return out;
}

bool TraceRecorder::WriteChromeJson(const std::string& path,
                                    std::string* error) {
  return WriteFile(path, ToChromeJson() + "\n", error);
}

bool TraceRecorder::FlushPartial(const std::string& path, std::string* error) {
  // try_to_lock, and proceed even on failure: on the crash path the owner
  // may never release mu_, and a torn read beats a deadlock or an empty
  // trace. In normal (non-signal) use the lock is simply acquired.
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  return WriteFile(path, RenderChromeJson() + "\n", error);
}

void TraceRecorder::EnableCrashFlush(std::string path) {
  if (crash_flush_path == nullptr) crash_flush_path = new std::string();
  *crash_flush_path = std::move(path);
  crash_flush_armed.store(true, std::memory_order_release);
  for (int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGINT, SIGTERM}) {
    std::signal(sig, CrashFlushHandler);
  }
}

size_t TraceRecorder::EventCount() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->events.size();
  return n;
}

std::vector<std::string> TraceRecorder::Categories() {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<std::string> cats;
  for (const auto& buffer : buffers_) {
    for (const TraceEvent& e : buffer->events) cats.insert(e.category);
  }
  return std::vector<std::string>(cats.begin(), cats.end());
}

void SetCurrentThreadName(std::string name) {
  TraceRecorder::Global().SetCurrentThreadName(std::move(name));
}

Span::Span(const char* name, const char* category) {
  if (!TraceRecorder::Global().enabled()) return;
  static_name_ = name;
  category_ = category;
  start_ = std::chrono::steady_clock::now();
  active_ = true;
}

Span::Span(std::string name, const char* category) {
  if (!TraceRecorder::Global().enabled()) return;
  dynamic_name_ = std::move(name);
  category_ = category;
  start_ = std::chrono::steady_clock::now();
  active_ = true;
}

void Span::Arg(const char* key, std::string value) {
  if (!active_) return;
  args_.emplace_back(key, std::move(value));
}

void Span::End() {
  if (!active_) return;
  active_ = false;
  TraceRecorder& recorder = TraceRecorder::Global();
  if (!recorder.enabled()) return;  // disabled mid-span: drop it
  const auto end = std::chrono::steady_clock::now();
  TraceEvent event;
  event.name = static_name_ != nullptr ? std::string(static_name_)
                                       : std::move(dynamic_name_);
  event.category = category_;
  const int64_t start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               start_.time_since_epoch())
                               .count();
  event.start_ns = start_ns - recorder.epoch_ns();
  event.dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     end - start_)
                     .count();
  event.args = std::move(args_);
  recorder.Append(std::move(event));
}

}  // namespace obs
}  // namespace nose
