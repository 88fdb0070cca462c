"""Cross-commit golden digests of the learning columns.

The equivalence tests compare backends, worker counts, shard counts and
chunk sizes with *each other*, so a change that shifts every path the
same way (say, a reordered reduction in local training) passes them
all.  These digests pin short runs to recorded values instead: the
learning columns ``train_loss``, ``test_accuracy`` and
``upload_bits_total``, plus the bits of the final global parameters —
the columns alone can hide a last-bit drift for many rounds.

The runs cover every Table I method on the MNIST preset, FedBIAD and
FedDrop on PTB (V=10, tau=3, so FedBIAD's stage-one judgment points
resample patterns; FedDrop trains scaled elementwise sub-models of the
recurrent model), and the fleet preset in sync and async mode.

Regenerate (only when a numeric change is intended, and say so in the
change log) with::

    PYTHONPATH=src python tests/experiments/test_golden_digests.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.registry import make_method
from repro.experiments.configs import TABLE1_METHODS, preset_for
from repro.experiments.runner import cached_task
from repro.fl.async_aggregation import AsyncFederatedSimulation
from repro.fl.simulation import FederatedSimulation

COLUMNS = ("train_loss", "test_accuracy", "upload_bits_total")

#: (task, method, config overrides) per golden run.
RUNS = {
    **{
        f"mnist-{m}": ("mnist", m, {"rounds": 3})
        for m in TABLE1_METHODS
    },
    "ptb-fedbiad": ("ptb", "fedbiad", {"rounds": 2, "eval_every": 2}),
    "ptb-feddrop": ("ptb", "feddrop", {"rounds": 2, "eval_every": 2}),
    "fleet-sync": ("fleet", "fedbiad", {"rounds": 3, "eval_every": 3}),
    "fleet-async": (
        "fleet", "fedbiad",
        {"rounds": 3, "eval_every": 3, "mode": "async", "buffer_size": 8},
    ),
}

GOLDEN = {
    'fleet-async': {
        'train_loss': 'd84dfeb71c95419cbf3cc6bf12ff6d488e773013ea75f5a260355a84f66d7c8f',
        'test_accuracy': 'f1909d845cf747deabc117c590cab37b032e16141bf89c533935fcb9546c4845',
        'upload_bits_total': '97a108a613176f122260336b0c6a0b6829179be1e63a2ad8480b1301c252ceaf',
        'global_params': '6022eab423c831b15e54306baa17cf6e8c4357428798f284eb624ae84881f046',
    },
    'fleet-sync': {
        'train_loss': '18b6534c379324db5103caf44b877b5dfc71ab81e0ca071ccdce646346d09de0',
        'test_accuracy': '7707a2240525249ef0479b94955129ab4098add9ad619646896bef7a722b1769',
        'upload_bits_total': 'ded9c81050c8bbe490a4aa8ad02cb88f497a4eca158a08aae308289a1cbdd04f',
        'global_params': '66a0fbef7e102ccc06d3ee05d941200aa7173275ec4e45d6b0ae087fd9999839',
    },
    'mnist-afd': {
        'train_loss': 'cd6f0513dc24057af100e40c5422686fc56fde398c741ab5ed695e882309671f',
        'test_accuracy': 'a1f679dc580999609e82c50d7566beba97e86319f0e714ddb1917d5fb3d2a3a8',
        'upload_bits_total': '396244ad3ce64bd90863de99f4f2166601a7a8bbe31add8036344b3c45662cd2',
        'global_params': 'fd87a9f2b97ce6918b6dd0ff67136620229dde4941d3434f52eaad0b2e9b9a3d',
    },
    'mnist-fedavg': {
        'train_loss': 'd178326f4f7c9df7df4836a854b3c431c5cb1a43b4889a04b11b68602b1e2921',
        'test_accuracy': '7a9fd96dfff8ac46be549c0142af541d1e3771b71986014088bfd70de1d68adb',
        'upload_bits_total': 'e888ded6010d1590c8b704ab3cf4896d9fdd4e1896c1e0fd5ab866ab095ebc67',
        'global_params': '6d83f801e647d9b9b8ed5b23a7968ae0a13c908b85d5991113959a9bc3f3a5cb',
    },
    'mnist-fedbiad': {
        'train_loss': '6bcd34bac55f9f5c951562050285c06f96daece9bf92fbbe460c3b2f6e85e059',
        'test_accuracy': 'b321a34210b5efbf10291a408264a8db5707c604681f06890b46c91ce741c2d6',
        'upload_bits_total': 'ea52a797524a707c184f63c2d0ad830c39a7235782b3c490c6d8a3b04bb02aae',
        'global_params': '553c42125056eaac346565456106905a46a327a0b4d79593c37388be4078c6c0',
    },
    'mnist-feddrop': {
        'train_loss': '090b8065d1ebdb96ec0355b9eace08c70b602cec8c372e88d5057cb92f58e991',
        'test_accuracy': '42d3d2d8f7568351426796205924743641f23bf7a6002981202ca08b44068ff1',
        'upload_bits_total': 'c3727f00dc83fcbe94fb16d3eddc445effca86f80404a1bb9549af61b09f2992',
        'global_params': '2cf7be4162a3f200a71deefa35034c3e5504240c93681d9050592d894e0bf452',
    },
    'mnist-fedmp': {
        'train_loss': '6b2e4819583d75b982f1f447455580b34dd76f63ca1cd5cf89b5dd1fe3b47a64',
        'test_accuracy': '71fe44235076de645489870b7b46221f9f81260781d7824e2e10f237fc752a64',
        'upload_bits_total': '2b3fd9fa5ab54cb247da3ad7aa2e13801f6e3bfdee835556d974d87e11459ae3',
        'global_params': '79c6937ad42b6675bea49ad9ba850c1d1031de9340b45733d5331bdb8a3feb2c',
    },
    'mnist-fjord': {
        'train_loss': '23ab302ef62920fbb95c2e50d3dede966ae40ecf7525efcf788a12b3a4188dc0',
        'test_accuracy': '908fbca2e62827d6baba8d1bb86f68b4e9e1cd9b6a11fdb0f82259f980a87821',
        'upload_bits_total': '609f001aa726e496f89a36ab237b3ef4eda854a77e16b576b8120d7904bee827',
        'global_params': '47c9764455db84a8887645e57c141a5ad50755b43efbe3c72b4b7ba3899c94d6',
    },
    'mnist-heterofl': {
        'train_loss': '5e2aa51ea7bcf4a26e6844ab34c36675ae067521934a43aed22786ef41a7243c',
        'test_accuracy': '53d9b5b0964d24e69908c3a242a4998762e13cb7d35956fadcbdc1636017280e',
        'upload_bits_total': 'eb97231e9f9506908ed08ede4fc69238f3ee84839982797d61907ba5184d6741',
        'global_params': '5556e1dd67b45e2c035ad3350bdae9668d3e9bd43e33558b1336a3f1df9b7251',
    },
    'ptb-fedbiad': {
        'train_loss': '1d1947d886d966a5d45dc2dc6681039560a703ea58cbc84ed3b90b455cf93960',
        'test_accuracy': '41df71a431962745ecc4506606a929e91fb6660e8ff582aab077e7eab659cffa',
        'upload_bits_total': '8af2da49d75df84d134c3c6fa923375526e686af46573c48dd1f94bccce715ed',
        'global_params': '7de85545d247567deff683ec1a0a78cc9baed92d92504ab0e7d27ae62ccd9c28',
    },
    'ptb-feddrop': {
        'train_loss': '1c2c484f311ebec94440fbbedb8983380920573392e073febf78bfd10a30061c',
        'test_accuracy': '7e3ec5bf1c3884456f7812c17434dc943cbd894f0dea5a40e02ecbd249e534d5',
        'upload_bits_total': '1d85f40ef8c2a2644babcb8183fb4bf5bb856c25f9ab0e5d04362123853c101e',
        'global_params': '9d3a607a56720309c393f2abbdb7dc4b528c59ed8d85172e60102f442a63022a',
    },
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def run_digests(name: str) -> dict[str, str]:
    """One small-preset run at seed 0, as the experiment runner sets it up."""
    task_name, method, overrides = RUNS[name]
    preset = preset_for(task_name, "small")
    config = preset.fl.with_overrides(seed=0, **overrides)
    task = cached_task(task_name, "small", preset.data_seed)
    sim_cls = AsyncFederatedSimulation if config.mode == "async" else FederatedSimulation
    sim = sim_cls(task, make_method(method), config)
    history = sim.run()
    digests = {c: _digest(history.series(c)) for c in COLUMNS}
    digests["global_params"] = _digest(sim.global_params.flatten())
    return digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_learning_columns_match_golden(name):
    assert run_digests(name) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("GOLDEN = {")
    for name in sorted(RUNS):
        print(f"    {name!r}: {{")
        for column, digest in run_digests(name).items():
            print(f"        {column!r}: {digest!r},")
        print("    },")
    print("}")
