import json
import re
from pathlib import Path

from offerlab.cli import STAGES
from offerlab.config import PipelineConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    # the documented imports must name what offerlab exports
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_json_config_blocks_load():
    # a documented config must pass the loader's type and range checks
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        PipelineConfig.from_dict(json.loads(block))


def test_cli_block_lists_the_stages():
    # the sh block under "## CLI" shows one line per subcommand, in STAGES order
    section = README.read_text().split("\n## CLI\n")[1].split("\n## ")[0]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    assert [line.split()[1] for line in block.splitlines()] == list(STAGES)
