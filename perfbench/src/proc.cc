#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

int DecodeStatus(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

std::string Joined(const std::vector<std::string>& argv) {
  std::string out;
  for (const std::string& a : argv) out += (out.empty() ? "" : " ") + a;
  return out;
}

}  // namespace

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& stdout_path,
                           const std::string& stderr_path) {
  if (argv.empty()) throw std::invalid_argument("empty argv");
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: die with the load program, wire the output files, exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int out = ::open(stdout_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    const int err = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (out < 0 || err < 0) ::_exit(126);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(err, STDERR_FILENO);
    // Nothing else of the load program's leaks into the child: an inherited
    // socket would keep another server's connection open.
    for (int fd = STDERR_FILENO + 1; fd < 4096; ++fd) ::close(fd);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
}

ChildProcess::~ChildProcess() { Stop(); }

int ChildProcess::Wait(double timeout_s) {
  if (pid_ <= 0) return status_;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  auto pause = std::chrono::microseconds(200);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      status_ = DecodeStatus(status);
      return status_;
    }
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      status_ = -1;
      return status_;
    }
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(pause);
    if (pause < std::chrono::milliseconds(5)) pause *= 2;
  }
}

int ChildProcess::Stop(double grace_s) {
  if (pid_ <= 0) return status_;
  ::kill(pid_, SIGTERM);
  if (Wait(grace_s) != -1 || pid_ <= 0) return status_;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  status_ = DecodeStatus(status);
  return status_;
}

void RunChecked(const std::vector<std::string>& argv, double timeout_s,
                const std::string& log_prefix) {
  const std::string out = log_prefix + ".out";
  const std::string err = log_prefix + ".err";
  ChildProcess child(argv, out, err);
  const int status = child.Wait(timeout_s);
  if (status == -1 && child.running()) {
    child.Stop(1.0);
    throw std::runtime_error("timed out after " + std::to_string(timeout_s) +
                             " s: " + Joined(argv));
  }
  if (status != 0) {
    throw std::runtime_error("exit status " + std::to_string(status) + ": " +
                             Joined(argv) + "\n" + TailOfFile(err));
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string TailOfFile(const std::string& path, std::size_t max_bytes) {
  const std::string all = ReadFile(path);
  return all.size() <= max_bytes ? all : all.substr(all.size() - max_bytes);
}

}  // namespace perfbench
