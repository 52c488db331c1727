#include "harness/daemon_process.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

/// Parses the port out of "dquag serve: listening on HOST:PORT (...)".
int FindListeningPort(const std::string& log) {
  const std::string marker = "listening on ";
  const size_t at = log.find(marker);
  if (at == std::string::npos) return 0;
  const size_t colon = log.find(':', at + marker.size());
  const size_t end = log.find(' ', at + marker.size());
  if (colon == std::string::npos || (end != std::string::npos && colon > end)) {
    return 0;
  }
  return std::atoi(log.c_str() + colon + 1);
}

std::string ReadAll(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

/// Waits up to `timeout_s` for `pid` to exit; true when reaped.
bool WaitExit(pid_t pid, double timeout_s, int* status) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(
                            static_cast<int64_t>(timeout_s * 1000));
  for (;;) {
    const pid_t done = ::waitpid(pid, status, WNOHANG);
    if (done == pid) return true;
    if (done < 0) return true;  // already reaped or not our child
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

dquag::StatusOr<std::unique_ptr<DaemonProcess>> DaemonProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  std::vector<std::string> argv_storage = {binary, "serve", "--port", "0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    return dquag::Status::IoError("cannot start " + binary + ": " +
                                  std::strerror(rc));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const int port = FindListeningPort(ReadAll(log_path));
    if (port > 0) {
      return std::unique_ptr<DaemonProcess>(new DaemonProcess(pid, port));
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      return dquag::Status::Unavailable("daemon exited during start-up: " +
                                        ReadAll(log_path));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return dquag::Status::DeadlineExceeded("daemon did not report a port");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

DaemonProcess::~DaemonProcess() { Stop(); }

double DaemonProcess::PeakRssMb() const {
  return pid_ > 0 ? PeakRssMbOf(std::to_string(pid_)) : 0.0;
}

int DaemonProcess::Stop() {
  if (pid_ <= 0) return 0;
  int status = 0;
  ::kill(pid_, SIGTERM);
  if (!WaitExit(pid_, 20.0, &status)) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    status = -1;
  }
  pid_ = -1;
  return status;
}

double PeakRssMbOf(const std::string& pid) {
  std::ifstream file("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
