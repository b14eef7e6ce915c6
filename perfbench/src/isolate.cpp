// One forked child per unit of analysis work. The coordinator never runs the
// analyzer, so every child starts from the same cold process image: the
// process-global arenas, query cache, simplify memo and FM prefix cache are
// empty in each sample regardless of what ran before it.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>

#include "bench.h"

namespace perfbench {
namespace {

void putU64(std::string& out, std::uint64_t v) { out.append(reinterpret_cast<const char*>(&v), 8); }

void putF64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  putU64(out, bits);
}

void putStr(std::string& out, const std::string& s) {
  putU64(out, s.size());
  out += s;
}

std::string serialize(const ChildResult& r) {
  std::string out;
  putU64(out, r.ok ? 1 : 0);
  putStr(out, r.error);
  putU64(out, r.metrics.size());
  for (const auto& [key, value] : r.metrics) {
    putStr(out, key);
    putF64(out, value);
  }
  putU64(out, r.hashes.size());
  for (std::uint64_t h : r.hashes) putU64(out, h);
  putU64(out, r.samples.size());
  for (double v : r.samples) putF64(out, v);
  putU64(out, r.blobs.size());
  for (const std::string& b : r.blobs) putStr(out, b);
  return out;
}

class Reader {
 public:
  explicit Reader(const std::string& in) : in_(in) {}
  bool u64(std::uint64_t& v) {
    if (in_.size() - pos_ < 8) return false;
    std::memcpy(&v, in_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, 8);
    return true;
  }
  bool str(std::string& s) {
    std::uint64_t n = 0;
    if (!u64(n) || in_.size() - pos_ < n) return false;
    s.assign(in_, pos_, n);
    pos_ += n;
    return true;
  }
  bool done() const { return pos_ == in_.size(); }

 private:
  const std::string& in_;
  std::size_t pos_ = 0;
};

bool deserialize(const std::string& in, ChildResult& r) {
  Reader rd(in);
  std::uint64_t ok = 0, n = 0;
  if (!rd.u64(ok) || !rd.str(r.error) || !rd.u64(n)) return false;
  r.ok = ok == 1;
  for (std::uint64_t k = 0; k < n; ++k) {
    std::string key;
    double value = 0;
    if (!rd.str(key) || !rd.f64(value)) return false;
    r.metrics[key] = value;
  }
  if (!rd.u64(n)) return false;
  r.hashes.resize(n);
  for (std::uint64_t& h : r.hashes)
    if (!rd.u64(h)) return false;
  if (!rd.u64(n)) return false;
  r.samples.resize(n);
  for (double& v : r.samples)
    if (!rd.f64(v)) return false;
  if (!rd.u64(n)) return false;
  r.blobs.resize(n);
  for (std::string& b : r.blobs)
    if (!rd.str(b)) return false;
  return rd.done();
}

bool writeAll(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ChildResult runIsolated(const std::function<void(ChildResult&)>& body, unsigned timeoutSeconds) {
  ChildResult result;
  int fds[2];
  if (::pipe(fds) != 0) {
    result.error = std::string("pipe: ") + std::strerror(errno);
    return result;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    result.error = std::string("fork: ") + std::strerror(errno);
    return result;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the coordinator
    ::alarm(timeoutSeconds);  // a hung child dies and is counted as failed
    ChildResult mine;
    try {
      mine.ok = true;
      body(mine);
    } catch (const std::exception& e) {
      mine.ok = false;
      mine.error = e.what();
    }
    const bool written = writeAll(fds[1], serialize(mine));
    ::_exit(written ? 0 : 3);
  }

  ::close(fds[1]);
  std::string payload;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    payload.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  result.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result.ok = false;
    result.error = WIFSIGNALED(status)
                       ? "child killed by signal " + std::to_string(WTERMSIG(status))
                       : "child exited with status " + std::to_string(WEXITSTATUS(status));
    return result;
  }
  if (!deserialize(payload, result)) {
    result = ChildResult{};
    result.error = "malformed child result";
  }
  result.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return result;
}

}  // namespace perfbench
