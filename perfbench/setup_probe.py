"""One timed set-up, run in a fresh interpreter by ``run.py``.

``python3 perfbench/setup_probe.py CONFIG MODULE SERVER`` imports MODULE
(``mcpa`` or ``mcpa.cli``), parses ``configs/CONFIG`` and builds the
Scenario; with SERVER = 1 it then starts the fake chat server and waits for
its first answer. It prints ``ready`` at that point, so the parent's clock
runs from interpreter start to a usable set-up, then shuts down.
mcpa is found through PYTHONPATH=src, set by the parent.
"""
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(config_name: str, module: str, server: str) -> int:
    importlib.import_module(module)
    from mcpa.config import build_scenario, load_config
    build_scenario(load_config(ROOT / "configs" / config_name))
    if server != "1":
        print("ready", flush=True)
        return 0
    from fake_chat import FakeChatProcess
    from mcpa.remote import chat_completion
    with FakeChatProcess() as chat:
        chat_completion(chat.url, "probe", [{"role": "user", "content": "Is there a bus?"}],
                        retries=1)
        print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:4]))
