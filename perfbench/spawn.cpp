#include <cerrno>
#include <csignal>
#include <cstdlib>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"

namespace perfbench {

std::string
stopChild(pid_t pid, int stdout_fd)
{
    ::kill(pid, SIGTERM);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(stdout_fd, buf, sizeof buf);
        if (n > 0) {
            out.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    ::close(stdout_fd);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR)
        ;
    return out;
}

double
timeSpawns(const std::vector<std::string> &argv, int runs,
           bool (*ready)(pid_t pid, int stdout_fd), pid_t *last_pid,
           int *last_stdout_fd)
{
    // Built before fork: the child may only exec.
    std::vector<char *> cargv;
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);

    std::vector<double> times;
    for (int k = 0; k < runs; ++k) {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            return -1.0;
        const auto t0 = Clock::now();
        const pid_t pid = ::fork();
        if (pid == 0) {
            // A child must not outlive a benchmark that dies early.
            ::prctl(PR_SET_PDEATHSIG, SIGTERM);
            ::dup2(fds[1], STDOUT_FILENO);
            ::execv(cargv[0], cargv.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        if (pid < 0) {
            ::close(fds[0]);
            return -1.0;
        }

        bool ok = false;
        while (secondsSince(t0) < 30.0) {
            if (ready(pid, fds[0])) {
                ok = true;
                break;
            }
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid) {
                ::close(fds[0]);
                return -1.0; // exited before it was ready
            }
        }
        times.push_back(secondsSince(t0));
        if (!ok) {
            stopChild(pid, fds[0]);
            return -1.0;
        }
        if (k + 1 == runs && last_pid != nullptr) {
            *last_pid = pid;
            *last_stdout_fd = fds[0];
        } else {
            stopChild(pid, fds[0]);
        }
    }
    return median(times);
}

} // namespace perfbench
