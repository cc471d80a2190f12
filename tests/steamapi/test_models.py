"""JSON payload parsing."""

from repro.steamapi.models import AppDetails


class TestParsers:
    def test_app_details(self):
        details = AppDetails.from_json(
            440,
            {
                "success": True,
                "data": {
                    "type": "game",
                    "genres": [
                        {"id": "0", "description": "Action"},
                        {"id": "2", "description": "Indie"},
                    ],
                    "categories": [{"id": 1, "description": "Multi-player"}],
                    "price_overview": {"final": 999},
                    "metacritic": {"score": 88},
                    "release_date": {"day_index": 1000},
                },
            },
        )
        assert details.genres == ("Action", "Indie")
        assert details.multiplayer
        assert details.price_cents == 999
        assert details.metacritic == 88

    def test_app_details_free_game(self):
        details = AppDetails.from_json(
            570,
            {
                "success": True,
                "data": {
                    "type": "game",
                    "categories": [
                        {"id": 2, "description": "Single-player"}
                    ],
                },
            },
        )
        assert details.price_cents == 0
        assert not details.multiplayer
        assert details.genres == ()

