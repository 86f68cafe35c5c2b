import hashlib

import pytest

from sulcikit.presets import make_phantom

# sha256 of make_phantom's uint16 voxel bytes, as computed by the dense-meshgrid
# construction (radius from np.linalg.norm over a (*shape, 3) coordinate array);
# the broadcast 1-D grids must reproduce them bit for bit
PHANTOM_SHA256 = {
    (1, 1, 1): "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
    (1, 5, 7): "82fcfd5215175da9e65ca7c4fb927a1fb0e61f09d54987c368e8e16ebd9c2969",
    (9, 1, 3): "ea659cdc838619b3767c057fdf8e6d99fde2680c5d8517eb06761c0878d40c40",
    (7, 3, 19): "7432f4e5a9b64b1a8430dd6a17d8661e4afeb70ebb88661332777c11173243b6",
    (17, 9, 33): "71ef886c7b366f9837bb97efc96155fd1b9d11a7e4be3a11c82252832bf4627e",
    (20, 24, 18): "daf031194162358a8c01f42fd8b8dc85b13e7e282c5315ee7aac663310b93806",
    (37, 52, 29): "c5f260a10c815bd8a8e36fa2aea8679accfb1cb4dc31e6f864514f82914b2336",
    (48, 48, 40): "19bbf7e39f361c819e6d1d03c9b2bd0d8ab248f603aa9342468fa91d4013cb04",
    (64, 40, 71): "e33c71748d42bb16269bc5970d60ef6f96d3f088bebb170401a8dc7ce3cb8e77",
    (81, 81, 2): "0969661ea1f132601a8bc7e2c0e80813d8f3364d917ca2f964011fae0ca8d18e",
    (80, 96, 80): "dfea82a1ff35872ee12f7bdf9320791474c1bb620aca5eb82d041eacdf16bf80",
    (160, 192, 160): "ce8922874f4d72583a97adac91b5e25489e5000ae9e074cae10356d091ea5209",
}


@pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.8, 1.2, 2.5)], ids=["iso", "aniso"])
@pytest.mark.parametrize("shape", list(PHANTOM_SHA256), ids=str)
def test_phantom_voxels_pinned(shape, spacing):
    phantom = make_phantom(shape, spacing)
    assert phantom.grid.shape == shape and phantom.grid.spacing == spacing
    assert hashlib.sha256(phantom.voxels.tobytes()).hexdigest() == PHANTOM_SHA256[shape]


@pytest.mark.parametrize("shape", [(20, 24, 18), (37, 52, 29), (160, 192, 160)], ids=str)
def test_pinned_phantoms_hold_every_label(shape):
    # the pins cover the shells and both ribbons, not only empty volumes
    assert make_phantom(shape).labels_present() == [0, 1, 2, 3, 48, 49]
