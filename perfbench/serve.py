"""Serve the toy-corpus trigram model on a loopback port.

Started by the remote_ngram workload as a child process. Prints the bound
port on one line, then serves until its standard input closes.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from medal import serve_denoiser  # noqa: E402
from workloads import toy_ngram  # noqa: E402


def main() -> None:
    server = serve_denoiser(toy_ngram(), "127.0.0.1", 0)
    thread = server.serve_in_thread()
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


if __name__ == "__main__":
    main()
